//! The perf-regression gate: compare a committed `BENCH_scale.json`
//! against freshly measured tables and fail on throughput drops.
//!
//! `BENCH_scale.json` is a concatenation of single-line JSON objects,
//! one per experiment table, each in the exact shape
//! `experiments::Table::to_json` emits: `{"title", "columns", "rows",
//! "notes"}` with every value a string. This module carries its own
//! dependency-free parser for that subset (strict on structure, full
//! string-escape support), a comparator keyed on *(experiment id, row
//! identity)*, and the policy knob CI applies:
//!
//! * **experiment id** — the title up to the first `" — "` separator
//!   (`"E16 — single-trial scaling …"` → `E16`), so cosmetic title edits
//!   don't orphan a baseline;
//! * **row identity** — the cells of every column *before* the first
//!   throughput column, which by table convention are the configuration
//!   columns (`n`, `q`, `shards`, `outcome`, …);
//! * **throughput columns** — headers containing `"rounds/s"` or
//!   `"instances/s"` (the instance-plane sweep, E17); each is compared
//!   as `fresh ≥ committed · (1 − tolerance)`;
//! * **digest columns** — a `digest` column (E16, E17) is a pure
//!   function of the seed, so every fresh sample of a committed row must
//!   carry exactly the committed digest; any difference fails the gate.
//!
//! Tolerance is a fraction (CI reads `RFC_GATE_TOLERANCE`, default
//! `0.20`). Missing tables, missing rows, and unparseable throughput
//! cells fail the gate — silent shrinkage of coverage must not read as
//! a pass. Rows or tables present only in the *fresh* set are reported
//! as notes (new coverage is fine; the baseline just hasn't caught up).
//! One exception: a committed table whose title marks it as a
//! **landmark** (see [`is_landmark_table`]) is a manually captured
//! milestone — e.g. the 10⁷-agent E16 row, ~107 min of compute — that
//! no CI capture reproduces; when absent from the fresh set it is
//! skipped with a note instead of failing. When a landmark table *is*
//! present in the fresh set (the selftest's regressed copy, or a
//! deliberate re-capture), its cells are gated like any other.

/// One parsed experiment table (the `Table::to_json` schema).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableData {
    /// Table caption, e.g. `"E16 — single-trial scaling …"`.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// String cells, one `Vec` per row.
    pub rows: Vec<Vec<String>>,
    /// Footnotes.
    pub notes: Vec<String>,
}

impl TableData {
    /// The experiment id: the title up to the first `" — "`.
    pub fn id(&self) -> &str {
        self.title.split(" — ").next().unwrap_or(&self.title).trim()
    }
}

// ---------------------------------------------------------------------
// Minimal JSON reader (strings / arrays / objects; atoms kept as text)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

type PResult<T> = Result<T, String>;

impl<'a> Reader<'a> {
    fn new(s: &'a str) -> Self {
        Reader {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {}", self.pos, msg)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> PResult<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> PResult<Json> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(_) => Err(self.err("expected a string, array, or object")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn string(&mut self) -> PResult<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self
                        .peek()
                        .ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("bad \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                // Multi-byte UTF-8: copy the raw continuation bytes.
                _ => {
                    let start = self.pos - 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&c| c & 0xC0 == 0x80)
                    {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> PResult<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("short \\u escape"))?;
            self.pos += 1;
            v = v * 16
                + (b as char)
                    .to_digit(16)
                    .ok_or_else(|| self.err("non-hex in \\u escape"))?;
        }
        Ok(v)
    }

    fn array(&mut self) -> PResult<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> PResult<Json> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

fn str_array(v: &Json, what: &str) -> PResult<Vec<String>> {
    match v {
        Json::Arr(items) => items
            .iter()
            .map(|i| match i {
                Json::Str(s) => Ok(s.clone()),
                _ => Err(format!("{what}: expected an array of strings")),
            })
            .collect(),
        _ => Err(format!("{what}: expected an array")),
    }
}

fn table_from_json(v: Json) -> PResult<TableData> {
    let Json::Obj(fields) = v else {
        return Err("table: expected a JSON object".into());
    };
    let mut t = TableData {
        title: String::new(),
        columns: Vec::new(),
        rows: Vec::new(),
        notes: Vec::new(),
    };
    let mut seen_title = false;
    for (key, val) in fields {
        match key.as_str() {
            "title" => match val {
                Json::Str(s) => {
                    t.title = s;
                    seen_title = true;
                }
                _ => return Err("title: expected a string".into()),
            },
            "columns" => t.columns = str_array(&val, "columns")?,
            "rows" => match val {
                Json::Arr(rows) => {
                    t.rows = rows
                        .iter()
                        .map(|r| str_array(r, "row"))
                        .collect::<PResult<_>>()?;
                }
                _ => return Err("rows: expected an array".into()),
            },
            "notes" => t.notes = str_array(&val, "notes")?,
            other => return Err(format!("unknown table field {other:?}")),
        }
    }
    if !seen_title {
        return Err("table: missing title".into());
    }
    for (i, row) in t.rows.iter().enumerate() {
        if row.len() != t.columns.len() {
            return Err(format!(
                "table {:?}: row {} has {} cells for {} columns",
                t.title,
                i,
                row.len(),
                t.columns.len()
            ));
        }
    }
    Ok(t)
}

/// Parse one `Table::to_json` object.
pub fn parse_table(input: &str) -> PResult<TableData> {
    let mut r = Reader::new(input);
    let v = r.value()?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return Err(r.err("trailing content after table"));
    }
    table_from_json(v)
}

/// Parse a concatenated stream of table objects (the `BENCH_scale.json`
/// layout: one object per line, but any whitespace separation works).
pub fn parse_tables(input: &str) -> PResult<Vec<TableData>> {
    let mut r = Reader::new(input);
    let mut out = Vec::new();
    loop {
        r.skip_ws();
        if r.pos == r.bytes.len() {
            break;
        }
        out.push(table_from_json(r.value()?)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Comparator
// ---------------------------------------------------------------------

/// Result of gating fresh tables against a committed baseline.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Number of (row, gated-column) comparisons performed: throughput,
    /// memory and digest columns.
    pub checks: usize,
    /// Violations: regressions beyond tolerance, vanished tables/rows,
    /// unparseable throughput cells. Non-empty ⇒ the gate fails.
    pub failures: Vec<String>,
    /// Informational lines: improvements beyond tolerance (a nudge to
    /// refresh the baseline), coverage present only in the fresh set.
    pub notes: Vec<String>,
}

impl GateReport {
    /// Does the gate pass?
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Is this column a gated throughput column (floor: fresh must not
/// drop below the committed value beyond tolerance)? `ops/s` also
/// matches the serial-section micro-bench's `Mops/s` columns.
pub fn is_gated_column(header: &str) -> bool {
    header.contains("rounds/s")
        || header.contains("instances/s")
        || header.contains("msgs/s")
        || header.contains("ops/s")
}

/// Is this column a gated memory column (ceiling: fresh must not *rise*
/// above the committed value beyond tolerance)? Matches the `ΔRSS MiB`
/// columns the experiment tables emit.
pub fn is_memory_column(header: &str) -> bool {
    header.contains("ΔRSS")
}

/// Is this column a digest column, compared exactly rather than within
/// a tolerance? The experiment tables name their seed-deterministic
/// fingerprint column `digest`.
pub fn is_digest_column(header: &str) -> bool {
    header == "digest"
}

/// True when a committed table is a manually captured **landmark** —
/// a milestone run too expensive for CI to reproduce (the convention
/// is "landmark" in the title, e.g.
/// `"E16L — 10⁷-agent landmark (manual capture)"`). Landmark tables
/// absent from the fresh set are skipped with a note instead of
/// failing the coverage check; present ones are gated normally.
pub fn is_landmark_table(title: &str) -> bool {
    title.contains("landmark")
}

/// Absolute slack (MiB) added on top of the relative memory tolerance:
/// small rows measure fractions of a MiB where a relative band is
/// meaningless noise-gating; the slack absorbs allocator jitter without
/// hiding a real regression (which shows up in whole-MiB multiples).
pub const MEM_SLACK_MIB: f64 = 8.0;

/// The row-identity cells: everything before the first gated
/// (throughput or memory) column — by table convention, the
/// configuration columns.
fn row_key(columns: &[String], row: &[String]) -> String {
    let id_cols = columns
        .iter()
        .position(|c| is_gated_column(c) || is_memory_column(c))
        .unwrap_or(columns.len());
    row[..id_cols].join("/")
}

/// Compare fresh tables against the committed baseline: every throughput
/// cell of every committed row must satisfy
/// `fresh ≥ committed · (1 − tolerance)`, and every memory (`ΔRSS`)
/// cell must satisfy
/// `fresh ≤ committed · (1 + tolerance) + MEM_SLACK_MIB`, and every
/// `digest` cell must equal the committed one in every fresh sample.
///
/// The fresh set may contain *several captures* of the same table (same
/// id): each cell is gated against the **best** sample — the max for
/// throughput, the min for memory. Both measurements are one-sided: a
/// busy machine reads throughput low and memory high, never the
/// opposite, so best-of-N damps flaky failures without ever hiding a
/// real regression that shows in every sample.
pub fn compare(committed: &[TableData], fresh: &[TableData], tolerance: f64) -> GateReport {
    let mut report = GateReport::default();
    for base in committed {
        let curs: Vec<&TableData> = fresh.iter().filter(|t| t.id() == base.id()).collect();
        if curs.is_empty() {
            if is_landmark_table(&base.title) {
                report.notes.push(format!(
                    "{}: landmark baseline (manual capture), not in fresh results — skipped",
                    base.id()
                ));
            } else {
                report
                    .failures
                    .push(format!("{}: table missing from fresh results", base.id()));
            }
            continue;
        }
        // (column index, is_memory): floor-gated throughput columns and
        // ceiling-gated memory columns.
        let gated: Vec<(usize, bool)> = base
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| is_gated_column(c) || is_memory_column(c))
            .map(|(i, c)| (i, is_memory_column(c)))
            .collect();
        let digests: Vec<usize> = base
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| is_digest_column(c))
            .map(|(i, _)| i)
            .collect();
        if gated.is_empty() && digests.is_empty() {
            report
                .notes
                .push(format!("{}: no throughput columns, skipped", base.id()));
            continue;
        }
        for brow in &base.rows {
            let key = row_key(&base.columns, brow);
            // Every sample of this row across all fresh captures.
            let matches: Vec<(&TableData, &Vec<String>)> = curs
                .iter()
                .flat_map(|t| {
                    t.rows
                        .iter()
                        .filter(|r| row_key(&t.columns, r) == key)
                        .map(move |r| (*t, r))
                })
                .collect();
            if matches.is_empty() {
                report
                    .failures
                    .push(format!("{} [{key}]: row missing from fresh results", base.id()));
                continue;
            }
            for &col in &digests {
                let header = &base.columns[col];
                let mut col_present = false;
                for (t, row) in &matches {
                    let Some(ccol) = t.columns.iter().position(|c| c == header) else {
                        continue;
                    };
                    col_present = true;
                    if row[ccol] != brow[col] {
                        report.failures.push(format!(
                            "{} [{key}] {header}: fresh {:?} != committed {:?}",
                            base.id(),
                            row[ccol],
                            brow[col]
                        ));
                    }
                }
                if col_present {
                    report.checks += 1;
                } else {
                    report.failures.push(format!(
                        "{} [{key}]: column {header:?} missing from fresh results",
                        base.id()
                    ));
                }
            }
            for &(col, memory) in &gated {
                let header = &base.columns[col];
                let mut best: Option<f64> = None;
                let mut col_present = false;
                let mut unparseable = false;
                for (t, row) in &matches {
                    let Some(ccol) = t.columns.iter().position(|c| c == header) else {
                        continue;
                    };
                    col_present = true;
                    match row[ccol].parse::<f64>() {
                        // Best sample: max throughput, min memory.
                        Ok(v) => {
                            best = Some(best.map_or(v, |acc| {
                                if memory { acc.min(v) } else { acc.max(v) }
                            }))
                        }
                        Err(_) if memory => {
                            // Memory is platform-dependent ("n/a" off
                            // Linux): skip with a note, don't fail.
                            report.notes.push(format!(
                                "{} [{key}] {header}: unmeasurable fresh cell {:?}, skipped",
                                base.id(),
                                row[ccol]
                            ));
                        }
                        Err(_) => {
                            report.failures.push(format!(
                                "{} [{key}] {header}: unparseable fresh cell {:?}",
                                base.id(),
                                row[ccol]
                            ));
                            unparseable = true;
                        }
                    }
                }
                if !col_present {
                    report.failures.push(format!(
                        "{} [{key}]: column {header:?} missing from fresh results",
                        base.id()
                    ));
                    continue;
                }
                if unparseable {
                    continue;
                }
                let b = match brow[col].parse::<f64>() {
                    Ok(b) => b,
                    Err(_) if memory => {
                        report.notes.push(format!(
                            "{} [{key}] {header}: unmeasurable committed cell {:?}, skipped",
                            base.id(),
                            brow[col]
                        ));
                        continue;
                    }
                    Err(_) => {
                        report.failures.push(format!(
                            "{} [{key}] {header}: unparseable committed cell {:?}",
                            base.id(),
                            brow[col]
                        ));
                        continue;
                    }
                };
                let Some(f) = best else {
                    continue; // memory column with only n/a samples
                };
                report.checks += 1;
                let samples = if matches.len() > 1 {
                    format!(" (best of {})", matches.len())
                } else {
                    String::new()
                };
                if memory {
                    let ceiling = b * (1.0 + tolerance) + MEM_SLACK_MIB;
                    if f > ceiling {
                        report.failures.push(format!(
                            "{} [{key}] {header}: {f} MiB{samples} vs committed {b} MiB (ceiling {ceiling:.2} = +{:.0}% +{MEM_SLACK_MIB} MiB slack)",
                            base.id(),
                            tolerance * 100.0,
                        ));
                    } else if f + MEM_SLACK_MIB < b * (1.0 - tolerance) {
                        report.notes.push(format!(
                            "{} [{key}] {header}: {f} MiB{samples} vs committed {b} MiB (shrunk — consider refreshing the baseline)",
                            base.id(),
                        ));
                    }
                    continue;
                }
                if b <= 0.0 {
                    continue; // nothing to gate against
                }
                let ratio = f / b;
                if ratio < 1.0 - tolerance {
                    report.failures.push(format!(
                        "{} [{key}] {header}: {f}{samples} vs committed {b} ({:.0}% drop > {:.0}% tolerance)",
                        base.id(),
                        (1.0 - ratio) * 100.0,
                        tolerance * 100.0,
                    ));
                } else if ratio > 1.0 + tolerance {
                    report.notes.push(format!(
                        "{} [{key}] {header}: {f}{samples} vs committed {b} (+{:.0}% — consider refreshing the baseline)",
                        base.id(),
                        (ratio - 1.0) * 100.0,
                    ));
                }
            }
        }
        let mut noted = std::collections::BTreeSet::new();
        for cur in &curs {
            for crow in &cur.rows {
                let key = row_key(&cur.columns, crow);
                if !base.rows.iter().any(|r| row_key(&base.columns, r) == key)
                    && noted.insert(key.clone())
                {
                    report
                        .notes
                        .push(format!("{} [{key}]: new row, not in baseline", base.id()));
                }
            }
        }
    }
    let mut noted = std::collections::BTreeSet::new();
    for cur in fresh {
        if !committed.iter().any(|t| t.id() == cur.id()) && noted.insert(cur.id().to_string()) {
            report
                .notes
                .push(format!("{}: new table, not in baseline", cur.id()));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(id: &str, cols: &[&str], rows: &[&[&str]]) -> TableData {
        TableData {
            title: format!("{id} — synthetic"),
            columns: cols.iter().map(|s| s.to_string()).collect(),
            rows: rows
                .iter()
                .map(|r| r.iter().map(|s| s.to_string()).collect())
                .collect(),
            notes: vec![],
        }
    }

    #[test]
    fn parses_the_committed_bench_layout() {
        let src = concat!(
            "{\"title\":\"E16 — scaling (γ = 3)\",\"columns\":[\"n\",\"rounds/s\"],",
            "\"rows\":[[\"512\",\"22274.2\"]],\"notes\":[\"a \\\"note\\\"\"]}\n",
            "{\"title\":\"E14b — dispatch\",\"columns\":[\"n\",\"speedup\"],",
            "\"rows\":[],\"notes\":[]}\n",
        );
        let tables = parse_tables(src).unwrap();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].id(), "E16");
        assert_eq!(tables[0].title, "E16 — scaling (γ = 3)");
        assert_eq!(tables[0].rows, vec![vec!["512", "22274.2"]]);
        assert_eq!(tables[0].notes, vec!["a \"note\""]);
        assert_eq!(tables[1].id(), "E14b");
    }

    #[test]
    fn rejects_malformed_tables() {
        assert!(parse_tables("{\"title\":1}").is_err());
        assert!(parse_tables("{\"columns\":[]}").is_err(), "missing title");
        assert!(parse_tables("[1,2]").is_err());
        assert!(parse_tables("{\"title\":\"x\",\"bogus\":[]}").is_err());
        // Row width must match the columns.
        let ragged = "{\"title\":\"x\",\"columns\":[\"a\"],\"rows\":[[\"1\",\"2\"]],\"notes\":[]}";
        assert!(parse_tables(ragged).is_err());
        // Truncated input.
        assert!(parse_tables("{\"title\":\"x").is_err());
    }

    #[test]
    fn identical_tables_pass() {
        let t = vec![table(
            "E16",
            &["n", "rounds/s", "digest"],
            &[&["512", "1000", "abc"], &["4096", "500", "def"]],
        )];
        let r = compare(&t, &t, 0.20);
        assert!(r.pass(), "{:?}", r.failures);
        assert_eq!(r.checks, 4, "two throughput and two digest checks");
        assert!(r.notes.is_empty());
    }

    #[test]
    fn digest_columns_must_match_exactly() {
        let base = vec![table(
            "E17",
            &["instances", "instances/s", "digest"],
            &[
                &["10", "500", "35ede45e9af3e885"],
                &["100", "400", "a8ebb3b711dcc094"],
            ],
        )];
        let r = compare(&base, &base, 0.20);
        assert!(r.pass(), "{:?}", r.failures);
        assert_eq!(r.checks, 4, "two throughput and two digest checks");

        // Same throughput, one digest moved: the gate fails on that row only.
        let drifted = vec![table(
            "E17",
            &["instances", "instances/s", "digest"],
            &[
                &["10", "500", "35ede45e9af3e885"],
                &["100", "400", "a8ebb3b711dcc095"],
            ],
        )];
        let r = compare(&base, &drifted, 0.20);
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(
            r.failures[0].contains("E17 [100] digest"),
            "{}",
            r.failures[0]
        );

        // Best-of-N does not apply: one drifted capture among good ones fails.
        let mut both = base.clone();
        both.extend(drifted.clone());
        assert!(!compare(&base, &both, 0.20).pass());

        // A fresh capture without the digest column fails coverage.
        let no_digest = vec![table(
            "E17",
            &["instances", "instances/s"],
            &[&["10", "500"], &["100", "400"]],
        )];
        let r = compare(&base, &no_digest, 0.20);
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("column \"digest\" missing")),
            "{:?}",
            r.failures
        );

        // A digest-only table is compared, not skipped.
        let only = vec![table("E16", &["n", "digest"], &[&["512", "abc"]])];
        let moved = vec![table("E16", &["n", "digest"], &[&["512", "abd"]])];
        assert!(compare(&only, &only, 0.20).pass());
        assert!(!compare(&only, &moved, 0.20).pass());

        // Landmarks keep their handling: absent ⇒ note; present ⇒ digest gated.
        let mut landmark = table(
            "E16L",
            &["n", "rounds/s", "digest"],
            &[&["10000000", "0.5", "9073"]],
        );
        landmark.title = "E16L — 10⁷-agent landmark (manual capture)".into();
        let r = compare(std::slice::from_ref(&landmark), &[], 0.20);
        assert!(r.pass(), "{:?}", r.failures);
        let mut other = landmark.clone();
        other.rows[0][2] = "9074".into();
        assert!(!compare(std::slice::from_ref(&landmark), &[other], 0.20).pass());
    }

    #[test]
    fn instances_per_s_columns_are_gated() {
        assert!(is_gated_column("instances/s"));
        assert!(is_gated_column("rounds/s"));
        assert!(is_gated_column("serial Mops/s"));
        assert!(is_gated_column("sharded Mops/s"));
        assert!(!is_gated_column("rtd mean"));
        let base = vec![table("E17", &["instances", "instances/s"], &[&["1000", "500"]])];
        let slow = vec![table("E17", &["instances", "instances/s"], &[&["1000", "200"]])];
        assert!(!compare(&base, &slow, 0.20).pass());
        assert!(compare(&base, &base, 0.20).pass());
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let base = vec![table("E16", &["n", "rounds/s"], &[&["512", "1000"]])];
        let slow = vec![table("E16", &["n", "rounds/s"], &[&["512", "700"]])];
        let r = compare(&base, &slow, 0.20);
        assert!(!r.pass());
        assert!(r.failures[0].contains("30% drop"), "{}", r.failures[0]);
        // The same drop passes under a looser tolerance.
        assert!(compare(&base, &slow, 0.35).pass());
        // A drop inside tolerance passes.
        let ok = vec![table("E16", &["n", "rounds/s"], &[&["512", "850"]])];
        assert!(compare(&base, &ok, 0.20).pass());
    }

    #[test]
    fn improvement_is_a_note_not_a_failure() {
        let base = vec![table("E16", &["n", "rounds/s"], &[&["512", "1000"]])];
        let fast = vec![table("E16", &["n", "rounds/s"], &[&["512", "1500"]])];
        let r = compare(&base, &fast, 0.20);
        assert!(r.pass());
        assert_eq!(r.notes.len(), 1);
        assert!(r.notes[0].contains("refreshing"), "{}", r.notes[0]);
    }

    #[test]
    fn missing_table_row_or_column_fails() {
        let base = vec![table("E16", &["n", "rounds/s"], &[&["512", "1000"]])];
        let r = compare(&base, &[], 0.20);
        assert!(r.failures[0].contains("table missing"));
        let no_row = vec![table("E16", &["n", "rounds/s"], &[&["4096", "1000"]])];
        let r = compare(&base, &no_row, 0.20);
        assert!(r.failures.iter().any(|f| f.contains("row missing")));
        let no_col = vec![table("E16", &["n"], &[&["512"]])];
        let r = compare(&base, &no_col, 0.20);
        assert!(r.failures.iter().any(|f| f.contains("column")));
    }

    #[test]
    fn unparseable_throughput_cell_fails() {
        let base = vec![table("E16", &["n", "rounds/s"], &[&["512", "1000"]])];
        let junk = vec![table("E16", &["n", "rounds/s"], &[&["512", "fast"]])];
        let r = compare(&base, &junk, 0.20);
        assert!(r.failures.iter().any(|f| f.contains("unparseable")));
    }

    #[test]
    fn fresh_only_coverage_is_a_note() {
        let base = vec![table("E16", &["n", "rounds/s"], &[&["512", "1000"]])];
        let more = vec![
            table("E16", &["n", "rounds/s"], &[&["512", "1000"], &["4096", "2"]]),
            table("E99", &["n", "rounds/s"], &[&["1", "1"]]),
        ];
        let r = compare(&base, &more, 0.20);
        assert!(r.pass());
        assert!(r.notes.iter().any(|n| n.contains("new row")));
        assert!(r.notes.iter().any(|n| n.contains("new table")));
    }

    #[test]
    fn repeated_captures_gate_against_the_best_sample() {
        let base = vec![table("E16", &["n", "rounds/s"], &[&["512", "1000"]])];
        // One noisy low sample + one healthy sample: best-of-2 passes.
        let noisy = vec![
            table("E16", &["n", "rounds/s"], &[&["512", "600"]]),
            table("E16", &["n", "rounds/s"], &[&["512", "980"]]),
        ];
        let r = compare(&base, &noisy, 0.20);
        assert!(r.pass(), "{:?}", r.failures);
        assert_eq!(r.checks, 1, "one check per cell, not per sample");
        // A regression present in *every* sample still fails, and the
        // message says how many samples were consulted.
        let slow = vec![
            table("E16", &["n", "rounds/s"], &[&["512", "600"]]),
            table("E16", &["n", "rounds/s"], &[&["512", "650"]]),
        ];
        let r = compare(&base, &slow, 0.20);
        assert!(!r.pass());
        assert!(r.failures[0].contains("best of 2"), "{}", r.failures[0]);
    }

    #[test]
    fn memory_ceiling_gates_rss_columns() {
        assert!(is_memory_column("ΔRSS MiB"));
        assert!(!is_memory_column("rounds/s"));
        assert!(!is_gated_column("ΔRSS MiB"));
        let base =
            vec![table("E16", &["n", "rounds/s", "ΔRSS MiB"], &[&["512", "1000", "100"]])];
        // Growth within tolerance + slack passes.
        let ok =
            vec![table("E16", &["n", "rounds/s", "ΔRSS MiB"], &[&["512", "1000", "115"]])];
        let r = compare(&base, &ok, 0.20);
        assert!(r.pass(), "{:?}", r.failures);
        assert_eq!(r.checks, 2, "throughput + memory both checked");
        // Growth beyond ceiling fails — memory regressions are gated.
        let fat =
            vec![table("E16", &["n", "rounds/s", "ΔRSS MiB"], &[&["512", "1000", "200"]])];
        let r = compare(&base, &fat, 0.20);
        assert!(!r.pass());
        assert!(r.failures[0].contains("ceiling"), "{}", r.failures[0]);
        // A *drop* in memory is fine (and noted when large).
        let slim =
            vec![table("E16", &["n", "rounds/s", "ΔRSS MiB"], &[&["512", "1000", "10"]])];
        let r = compare(&base, &slim, 0.20);
        assert!(r.pass());
        assert!(r.notes.iter().any(|n| n.contains("shrunk")), "{:?}", r.notes);
    }

    #[test]
    fn memory_small_rows_ride_the_absolute_slack() {
        // Sub-MiB committed cells would fail any relative band on pure
        // jitter; the absolute slack absorbs that.
        let base = vec![table("E16", &["n", "ΔRSS MiB"], &[&["512", "0.05"]])];
        let jitter = vec![table("E16", &["n", "ΔRSS MiB"], &[&["512", "4.50"]])];
        assert!(compare(&base, &jitter, 0.20).pass());
        let blowup = vec![table("E16", &["n", "ΔRSS MiB"], &[&["512", "32.00"]])];
        assert!(!compare(&base, &blowup, 0.20).pass());
    }

    #[test]
    fn landmark_tables_skip_when_absent_and_gate_when_present() {
        let mut landmark =
            table("E16L", &["n", "rounds/s", "ΔRSS MiB"], &[&["10000000", "0.045", "49151.85"]]);
        landmark.title = "E16L — 10⁷-agent landmark (manual capture)".into();
        let quick = table("E16", &["n", "rounds/s"], &[&["512", "1000"]]);
        let committed = vec![quick.clone(), landmark.clone()];
        // Fresh CI captures never rerun the landmark: note, not failure.
        let r = compare(&committed, &[quick.clone()], 0.20);
        assert!(r.pass(), "{:?}", r.failures);
        assert!(r.notes.iter().any(|n| n.contains("landmark")), "{:?}", r.notes);
        // A non-landmark table absent from fresh still fails (coverage
        // shrink must not read as a pass).
        assert!(!compare(&committed, &[landmark.clone()], 0.20).pass());
        // When the landmark IS present (selftest / deliberate
        // re-capture), its cells are gated like any other table's.
        let mut slow = landmark.clone();
        slow.rows[0][1] = "0.01".into();
        let r = compare(&committed, &[quick, slow], 0.20);
        assert!(!r.pass());
        assert!(r.failures.iter().any(|f| f.contains("E16L")), "{:?}", r.failures);
    }

    #[test]
    fn memory_na_cells_skip_instead_of_failing() {
        let base = vec![table("E16", &["n", "ΔRSS MiB"], &[&["512", "100"]])];
        let na = vec![table("E16", &["n", "ΔRSS MiB"], &[&["512", "n/a"]])];
        let r = compare(&base, &na, 0.20);
        assert!(r.pass(), "{:?}", r.failures);
        assert!(r.notes.iter().any(|n| n.contains("unmeasurable")));
        // And symmetrically for an n/a baseline (captured off-Linux).
        let r = compare(&na, &base, 0.20);
        assert!(r.pass(), "{:?}", r.failures);
    }

    #[test]
    fn memory_best_of_n_takes_the_minimum_sample() {
        let base = vec![table("E16", &["n", "ΔRSS MiB"], &[&["512", "100"]])];
        // One inflated sample (warm process) + one clean: min passes.
        let noisy = vec![
            table("E16", &["n", "ΔRSS MiB"], &[&["512", "300"]]),
            table("E16", &["n", "ΔRSS MiB"], &[&["512", "105"]]),
        ];
        assert!(compare(&base, &noisy, 0.20).pass());
        // Inflation in every sample still fails.
        let fat = vec![
            table("E16", &["n", "ΔRSS MiB"], &[&["512", "300"]]),
            table("E16", &["n", "ΔRSS MiB"], &[&["512", "280"]]),
        ];
        assert!(!compare(&base, &fat, 0.20).pass());
    }

    #[test]
    fn title_edits_keep_the_id_match() {
        let mut base = table("E16", &["n", "rounds/s"], &[&["512", "1000"]]);
        base.title = "E16 — scaling (γ = 3, quick)".into();
        let mut fresh = base.clone();
        fresh.title = "E16 — scaling under the staged engine (γ = 3)".into();
        assert!(compare(&[base], &[fresh], 0.20).pass());
    }

    #[test]
    fn to_json_round_trips_through_the_parser() {
        // Regression test for `Table::to_json` escaping: every escape
        // class it can emit must decode back to the original cells.
        let mut t = experiments::Table::new(
            "E0 — \"quoted\" \\ back\nslash\ttab\u{1}ctl — γ≤δ",
            &["col \"a\"", "b\\c"],
        );
        t.row(vec!["line1\nline2".into(), "quote\" and \\ and \r end".into()]);
        t.row(vec!["\u{0}\u{1f}".into(), "π ≈ 3.14159".into()]);
        t.note("note with \"everything\": \\ \n \t");
        let parsed = parse_table(&t.to_json()).unwrap();
        assert_eq!(parsed.title, t.title);
        assert_eq!(parsed.columns, t.columns);
        assert_eq!(parsed.rows, t.rows);
        assert_eq!(parsed.notes, t.notes);
    }

    #[test]
    fn parser_handles_surrogate_pairs() {
        let src = "{\"title\":\"\\ud83d\\ude00 ok\",\"columns\":[],\"rows\":[],\"notes\":[]}";
        assert_eq!(parse_table(src).unwrap().title, "😀 ok");
        assert!(parse_table("{\"title\":\"\\ud83d x\",\"columns\":[],\"rows\":[],\"notes\":[]}").is_err());
    }
}
