//! Runs attacks 1-6 against every named defense
//! ([`defenses::DefenseKind::NAMED`], not a hard-coded list, so a newly
//! named defense automatically joins the matrix) and prints
//! which configurations leak (the paper's security argument, in executable
//! form), followed by the §4.8 domain-switch stress grid: the syscall/sandbox-heavy
//! kernels — which force a filter-cache flush every few hundred instructions
//! — under the figure-3 defense set. `--json` emits one object with a
//! `security` array of (attack, defense) outcomes and a `domain_switch` run
//! report. The attack litmus tests are security probes, not performance grid
//! cells, so they always execute; the domain-switch grid is a normal session
//! grid and honours `--scale`, `--threads`, `--store` and `--events` —
//! `--html FILE` renders it as the domain figure's self-contained page
//! (chart + flush-counter table; the security matrix stays text/JSON). For
//! the grid alone, use `figure domain`.

use simkit::json::{Json, ToJson};

fn main() {
    let options = bench::cli::parse_or_exit();
    let config = simkit::config::SystemConfig::paper_default();
    let store = options.open_store();
    let mut events = bench::cli::open_events(&options);
    let domain = bench::figure_session(
        "domain",
        options.scale,
        &config,
        options.threads,
        store.as_ref(),
    )
    .expect("domain is a registered figure")
    .run_with_events(match &mut events {
        Some(file) => Some(file),
        None => None,
    });
    bench::cli::write_html(&options, || {
        bench::render::figure_document("domain", &domain, &options.run_id)
            .expect("domain is a registered figure")
    });
    if options.html_only {
        return;
    }
    if options.json {
        let document = Json::obj([
            ("security", bench::security_json(&config)),
            ("domain_switch", domain.to_json()),
        ]);
        println!("{}", document.to_string_pretty());
    } else {
        println!("{}", bench::security_matrix(&config));
        println!("{}", bench::Figure::from_report(&domain).render());
    }
}
