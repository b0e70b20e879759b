//! The HTML assembler: folds rendered figures and tables into one
//! self-contained `report.html`.
//!
//! Self-contained means *zero external assets*: inline SVG, one inline
//! `<style>` block, the system font stack, no scripts, no links to anywhere
//! — the file renders identically from a CI artifact, an email attachment or
//! `file://`. CI asserts the strong form of this property: the output
//! contains nothing URL-shaped at all.

use crate::report::Provenance;
use crate::svg::escape;
use crate::table::SummaryTable;

/// One rendered figure section of the document.
#[derive(Debug, Clone)]
pub struct ReportFigure {
    /// Anchor id (sanitised to `[a-z0-9-]` on render).
    pub id: String,
    /// Section heading (the figure's title).
    pub title: String,
    /// Paper cross-reference, e.g. `"§6.1, Figure 3"`.
    pub paper_section: String,
    /// Reader-facing caption under the chart.
    pub caption: String,
    /// The rendered `<svg>` fragment (trusted markup from this crate's
    /// chart renderers; everything else is escaped).
    pub svg: String,
    /// Run provenance line, when known.
    pub provenance: Option<Provenance>,
}

/// A titled data table section (the domain-switch summary).
#[derive(Debug, Clone)]
struct TableSection {
    id: String,
    title: String,
    caption: String,
    table: SummaryTable,
}

/// The document builder.
///
/// # Examples
///
/// ```
/// use reportgen::html::{HtmlDocument, ReportFigure};
///
/// let mut doc = HtmlDocument::new("MuonTrap evaluation");
/// doc.intro("Regenerated from the result store.");
/// doc.figure(ReportFigure {
///     id: "fig3".into(),
///     title: "Figure 3".into(),
///     paper_section: "§6.1, Figure 3".into(),
///     caption: "SPEC-like slowdowns.".into(),
///     svg: "<svg viewBox=\"0 0 10 10\" width=\"10\" height=\"10\" role=\"img\"></svg>".into(),
///     provenance: None,
/// });
/// let html = doc.render();
/// assert!(html.starts_with("<!doctype html>"));
/// assert!(html.contains("<svg ") && html.contains("Figure 3"));
/// assert!(!html.contains("http"), "self-contained: nothing URL-shaped");
/// ```
#[derive(Debug, Clone)]
pub struct HtmlDocument {
    title: String,
    intro: Vec<String>,
    sections: Vec<Section>,
}

#[derive(Debug, Clone)]
enum Section {
    Figure(ReportFigure),
    Table(TableSection),
}

impl HtmlDocument {
    /// A document with the given page title.
    pub fn new(title: impl Into<String>) -> HtmlDocument {
        HtmlDocument {
            title: title.into(),
            intro: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Appends an introductory paragraph (escaped).
    pub fn intro(&mut self, paragraph: impl Into<String>) {
        self.intro.push(paragraph.into());
    }

    /// Appends a figure section.
    pub fn figure(&mut self, figure: ReportFigure) {
        self.sections.push(Section::Figure(figure));
    }

    /// Appends a table section.
    pub fn table(
        &mut self,
        id: impl Into<String>,
        title: impl Into<String>,
        caption: impl Into<String>,
        table: SummaryTable,
    ) {
        self.sections.push(Section::Table(TableSection {
            id: id.into(),
            title: title.into(),
            caption: caption.into(),
            table,
        }));
    }

    /// Number of sections added so far.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True when no sections have been added.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Renders the complete, self-contained HTML document.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64 * 1024);
        out.push_str("<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
        out.push_str(&format!("<title>{}</title>\n", escape(&self.title)));
        out.push_str("<style>\n");
        out.push_str(STYLE);
        out.push_str("</style>\n</head>\n<body>\n");
        out.push_str(&format!("<h1>{}</h1>\n", escape(&self.title)));
        for paragraph in &self.intro {
            out.push_str(&format!("<p class=\"intro\">{}</p>\n", escape(paragraph)));
        }
        if self.sections.len() > 1 {
            out.push_str("<nav><ul>\n");
            for section in &self.sections {
                let (id, title) = match section {
                    Section::Figure(f) => (&f.id, &f.title),
                    Section::Table(t) => (&t.id, &t.title),
                };
                out.push_str(&format!(
                    "<li><a href=\"#{}\">{}</a></li>\n",
                    anchor(id),
                    escape(title)
                ));
            }
            out.push_str("</ul></nav>\n");
        }
        for section in &self.sections {
            match section {
                Section::Figure(figure) => self.render_figure(&mut out, figure),
                Section::Table(table) => self.render_table(&mut out, table),
            }
        }
        out.push_str("</body>\n</html>\n");
        out
    }

    fn render_figure(&self, out: &mut String, figure: &ReportFigure) {
        out.push_str(&format!(
            "<section id=\"{}\" class=\"card\">\n<h2>{}</h2>\n<p class=\"paper-ref\">{}</p>\n",
            anchor(&figure.id),
            escape(&figure.title),
            escape(&figure.paper_section),
        ));
        out.push_str("<figure>\n");
        out.push_str(&figure.svg);
        out.push_str(&format!(
            "\n<figcaption>{}</figcaption>\n</figure>\n",
            escape(&figure.caption)
        ));
        if let Some(provenance) = &figure.provenance {
            out.push_str(&format!(
                "<p class=\"provenance\">{}</p>\n",
                escape(&provenance.summary())
            ));
        }
        out.push_str("</section>\n");
    }

    fn render_table(&self, out: &mut String, section: &TableSection) {
        out.push_str(&format!(
            "<section id=\"{}\" class=\"card\">\n<h2>{}</h2>\n",
            anchor(&section.id),
            escape(&section.title),
        ));
        out.push_str(&section.table.render());
        out.push_str(&format!(
            "\n<p class=\"caption\">{}</p>\n</section>\n",
            escape(&section.caption)
        ));
    }
}

/// Sanitises an anchor id to `[a-z0-9-]` so hand-written ids can never break
/// out of the attribute.
fn anchor(id: &str) -> String {
    let cleaned: String = id
        .chars()
        .map(|c| match c.to_ascii_lowercase() {
            c @ ('a'..='z' | '0'..='9') => c,
            _ => '-',
        })
        .collect();
    if cleaned.is_empty() {
        "section".to_string()
    } else {
        cleaned
    }
}

/// The document stylesheet: system font stack, light surfaces, hairline
/// card borders, responsive inline SVG, tabular numerals in tables. No
/// imports, no webfonts — nothing that touches the network.
const STYLE: &str = "\
:root { color-scheme: light; }
body { font-family: system-ui, -apple-system, 'Segoe UI', sans-serif;
  background: #f9f9f7; color: #0b0b0b; margin: 0 auto; max-width: 76rem;
  padding: 1.5rem; line-height: 1.5; }
h1 { font-size: 1.5rem; }
h2 { font-size: 1.15rem; margin: 0 0 .25rem; }
p.intro { color: #52514e; max-width: 60rem; }
nav ul { list-style: none; padding: 0; display: flex; flex-wrap: wrap; gap: .25rem 1rem; }
nav a { color: #2a78d6; text-decoration: none; }
nav a:hover { text-decoration: underline; }
section.card { background: #fcfcfb; border: 1px solid rgba(11,11,11,0.10);
  border-radius: 8px; padding: 1rem 1.25rem; margin: 1rem 0; }
p.paper-ref { color: #898781; font-size: .85rem; margin: 0 0 .5rem; }
figure { margin: 0; overflow-x: auto; }
figure svg { max-width: 100%; height: auto; }
figcaption, p.caption { color: #52514e; font-size: .9rem; max-width: 60rem; }
p.provenance { color: #898781; font-size: .8rem; border-top: 1px solid #e1e0d9;
  padding-top: .5rem; margin-bottom: 0; font-variant-numeric: tabular-nums; }
table { border-collapse: collapse; font-size: .9rem; }
th, td { border-bottom: 1px solid #e1e0d9; padding: .3rem .75rem; text-align: left; }
th { color: #52514e; font-weight: 600; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
tfoot td { border-top: 2px solid #52514e; border-bottom: none; font-weight: 600; }
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_are_sanitised() {
        assert_eq!(anchor("fig3"), "fig3");
        assert_eq!(anchor("a b\"><script>"), "a-b---script-");
        assert_eq!(anchor(""), "section");
    }

    #[test]
    fn document_contains_nothing_url_shaped() {
        let mut doc = HtmlDocument::new("t");
        doc.intro("intro");
        let mut table = SummaryTable::new(["h"]);
        table.row([("v", true)]);
        doc.table("tbl", "Table", "caption", table);
        let html = doc.render();
        assert!(!html.contains("http"), "no protocol anywhere: {html}");
        assert!(!html.contains("<script"));
        assert!(!html.contains("<link"));
        assert!(!html.contains("@import"));
    }

    #[test]
    fn single_section_documents_skip_the_nav() {
        let mut doc = HtmlDocument::new("t");
        assert!(doc.is_empty());
        doc.table("only", "Only", "c", SummaryTable::new(["h"]));
        assert_eq!(doc.len(), 1);
        let html = doc.render();
        assert!(!html.contains("<nav>"));
    }

    #[test]
    fn titles_and_captions_are_escaped() {
        let mut doc = HtmlDocument::new("<title> & co");
        doc.figure(ReportFigure {
            id: "f".into(),
            title: "a < b".into(),
            paper_section: "§ & co".into(),
            caption: "c > d".into(),
            svg: String::new(),
            provenance: None,
        });
        let html = doc.render();
        assert!(html.contains("&lt;title&gt; &amp; co"));
        assert!(html.contains("a &lt; b"));
        assert!(html.contains("c &gt; d"));
    }
}
