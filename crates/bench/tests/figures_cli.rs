//! End-to-end test of the `figures` binary: the Figure 14 text table and
//! the `oi.figures.v1` document report the same row for every benchmark.

use oi_support::Json;
use std::process::Command;

fn figures(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "figures {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn fig14_json_rows_equal_the_text_table() {
    let text = figures(&["--size", "small", "fig14"]);
    let doc = Json::parse(&figures(&["--size", "small", "--json"])).expect("valid JSON");
    let rows = doc.get("fig14").and_then(Json::as_arr).unwrap();
    // Two heading lines, then one row per benchmark:
    // `name total ideal cxx auto`.
    let lines: Vec<&str> = text.lines().skip(2).collect();
    assert_eq!(lines.len(), rows.len(), "text:\n{text}");
    for (line, row) in lines.iter().zip(rows) {
        let cells: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(row.get("benchmark").and_then(Json::as_str), Some(cells[0]));
        let count = |key: &str| row.get(key).and_then(Json::as_i64).unwrap();
        let [total, ideal, cxx, auto] = ["total", "ideal", "cxx", "auto"].map(count);
        let text_row: Vec<i64> = cells[1..].iter().map(|c| c.parse().unwrap()).collect();
        assert_eq!(
            text_row,
            [total, ideal, cxx, auto],
            "{}: JSON row differs from the text table",
            cells[0]
        );
        assert!(cxx <= ideal && ideal <= total, "{line}");
        assert!(auto <= total, "{line}");
    }
}
