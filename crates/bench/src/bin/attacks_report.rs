//! Runs attacks 1-6 against every named defense
//! ([`defenses::DefenseKind::NAMED`], not a hard-coded list, so a newly
//! named defense automatically joins the matrix) and prints which
//! configurations leak: the paper's security argument, in executable form.
//! `--json` emits `{"security": [...]}`, one (attack, defense) outcome per
//! entry. The litmus tests are security probes, not grid cells, so they
//! always execute on the paper-default machine. Like `table1`, this binary
//! accepts the shared flags of [`bench::cli`] but reads only `--json`;
//! `--html` is rejected. The §4.8 domain-switch grid is `figure domain`
//! (and part of `report`).

use simkit::json::Json;

fn main() {
    let options = bench::cli::parse_or_exit();
    if options.html.is_some() {
        eprintln!(
            "attacks_report has no chart to render; use `figure domain --html` or `report --html`"
        );
        std::process::exit(2);
    }
    let config = simkit::config::SystemConfig::paper_default();
    if options.json {
        let document = Json::obj([("security", bench::security_json(&config))]);
        println!("{}", document.to_string_pretty());
    } else {
        println!("{}", bench::security_matrix(&config));
    }
}
