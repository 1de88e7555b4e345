//! End-to-end CLI tests: drive the real `attrition` binary through every
//! subcommand on a generated dataset.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_attrition")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary must execute")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Unique temp dir per test to keep parallel tests isolated.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("attrition_cli_tests")
        .join(format!("{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn generate_dataset(dir: &Path) {
    let out = run(&[
        "generate",
        "--out",
        dir.to_str().unwrap(),
        "--preset",
        "small",
        "--loyal",
        "30",
        "--defectors",
        "30",
        "--quiet",
    ]);
    assert!(out.status.success(), "generate failed: {}", stderr(&out));
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = run(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn help_flag_succeeds_per_command() {
    for cmd in [
        "generate", "stats", "evaluate", "explain", "rank", "export", "monitor", "serve", "dump",
    ] {
        let out = run(&[cmd, "--help"]);
        assert!(out.status.success(), "{cmd} --help failed");
        assert!(stdout(&out).contains("FLAGS"), "{cmd} help lacks FLAGS");
    }
}

#[test]
fn missing_required_flag_reports_name() {
    let out = run(&["stats"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--receipts"));
}

#[test]
fn positional_argument_rejected() {
    let out = run(&["stats", "receipts.csv"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("positional"));
}

#[test]
fn full_pipeline_generate_stats_evaluate_explain_rank_monitor() {
    let dir = temp_dir("pipeline");
    generate_dataset(&dir);
    let receipts = dir.join("receipts.csv");
    let taxonomy = dir.join("taxonomy.csv");
    let labels = dir.join("labels.csv");
    assert!(receipts.exists() && taxonomy.exists() && labels.exists());

    let stats = run(&[
        "stats",
        "--receipts",
        receipts.to_str().unwrap(),
        "--taxonomy",
        taxonomy.to_str().unwrap(),
    ]);
    assert!(stats.status.success(), "{}", stderr(&stats));
    assert!(stdout(&stats).contains("customers"));
    assert!(stdout(&stats).contains("60"));

    let eval = run(&[
        "evaluate",
        "--receipts",
        receipts.to_str().unwrap(),
        "--taxonomy",
        taxonomy.to_str().unwrap(),
        "--labels",
        labels.to_str().unwrap(),
    ]);
    assert!(eval.status.success(), "{}", stderr(&eval));
    assert!(stdout(&eval).contains("stability AUROC"));

    let explain = run(&[
        "explain",
        "--receipts",
        receipts.to_str().unwrap(),
        "--taxonomy",
        taxonomy.to_str().unwrap(),
        "--customer",
        "35",
    ]);
    assert!(explain.status.success(), "{}", stderr(&explain));
    assert!(stdout(&explain).contains("stability"));

    let rank = run(&[
        "rank",
        "--receipts",
        receipts.to_str().unwrap(),
        "--taxonomy",
        taxonomy.to_str().unwrap(),
        "--top",
        "5",
    ]);
    assert!(rank.status.success(), "{}", stderr(&rank));
    assert!(stdout(&rank).contains("at-risk"));

    let export_dir = dir.join("exported");
    let export = run(&[
        "export",
        "--receipts",
        receipts.to_str().unwrap(),
        "--taxonomy",
        taxonomy.to_str().unwrap(),
        "--out",
        export_dir.to_str().unwrap(),
    ]);
    assert!(export.status.success(), "{}", stderr(&export));
    assert!(export_dir.join("stability_scores.csv").exists());
    assert!(export_dir.join("explanations.csv").exists());

    let monitor = run(&[
        "monitor",
        "--receipts",
        receipts.to_str().unwrap(),
        "--taxonomy",
        taxonomy.to_str().unwrap(),
        "--beta",
        "0.5",
    ]);
    assert!(monitor.status.success(), "{}", stderr(&monitor));
    assert!(stdout(&monitor).contains("alerts"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_format_roundtrips_through_cli() {
    let dir = temp_dir("binfmt");
    let out = run(&[
        "generate",
        "--out",
        dir.to_str().unwrap(),
        "--format",
        "bin",
        "--quiet",
        "--loyal",
        "10",
        "--defectors",
        "10",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let receipts = dir.join("receipts.bin");
    assert!(receipts.exists());
    let stats = run(&["stats", "--receipts", receipts.to_str().unwrap()]);
    assert!(stats.status.success(), "{}", stderr(&stats));
    assert!(stdout(&stats).contains("20"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_customer_fails_cleanly() {
    let dir = temp_dir("badcust");
    generate_dataset(&dir);
    let out = run(&[
        "explain",
        "--receipts",
        dir.join("receipts.csv").to_str().unwrap(),
        "--taxonomy",
        dir.join("taxonomy.csv").to_str().unwrap(),
        "--customer",
        "999999",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("error"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_alpha_rejected() {
    let dir = temp_dir("badalpha");
    generate_dataset(&dir);
    let out = run(&[
        "evaluate",
        "--receipts",
        dir.join("receipts.csv").to_str().unwrap(),
        "--taxonomy",
        dir.join("taxonomy.csv").to_str().unwrap(),
        "--labels",
        dir.join("labels.csv").to_str().unwrap(),
        "--alpha",
        "0.5",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("alpha"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_rejects_bad_preset_and_onset() {
    let dir = temp_dir("badgen");
    let out = run(&[
        "generate",
        "--out",
        dir.to_str().unwrap(),
        "--preset",
        "huge",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("preset"));
    let out2 = run(&[
        "generate",
        "--out",
        dir.to_str().unwrap(),
        "--months",
        "10",
        "--onset",
        "12",
    ]);
    assert!(!out2.status.success());
    assert!(stderr(&out2).contains("onset"));
    std::fs::remove_dir_all(&dir).ok();
}

// ── `serve` subcommand ──────────────────────────────────────────────

#[test]
fn serve_requires_origin_without_restore() {
    let out = run(&["serve", "--addr", "127.0.0.1:0"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--origin"));
}

#[test]
fn serve_rejects_grid_flags_with_restore() {
    let out = run(&[
        "serve",
        "--restore",
        "whatever.csv",
        "--origin",
        "2012-05-01",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("conflicts with --restore"));
}

#[test]
fn serve_rejects_restore_with_wal_dir() {
    let out = run(&[
        "serve",
        "--wal-dir",
        "whatever_wal",
        "--restore",
        "whatever.csv",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--restore conflicts with --wal-dir"));
}

#[test]
fn serve_rejects_unknown_sync_policy() {
    let dir = temp_dir("badpolicy");
    let out = run(&[
        "serve",
        "--wal-dir",
        dir.to_str().unwrap(),
        "--origin",
        "2012-05-01",
        "--sync-policy",
        "sometimes",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("bad --sync-policy"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_corrupt_snapshot_exits_nonzero_naming_the_field() {
    let dir = temp_dir("badsnap");
    let path = dir.join("corrupt.bin");
    // A well-formed ATTRMON1 header (origin 2012-05-01, one-month
    // windows, α = 2, 5 explanations, one customer), then customer 7
    // tracking item 10 in 9 windows out of the 4 it has observed.
    let mut bytes = b"ATTRMON1".to_vec();
    bytes.extend(15461i32.to_le_bytes());
    bytes.push(1);
    bytes.extend(1u32.to_le_bytes());
    bytes.extend(2.0f64.to_bits().to_le_bytes());
    bytes.extend(5u64.to_le_bytes());
    bytes.extend(1u64.to_le_bytes());
    bytes.extend(7u64.to_le_bytes());
    for field in [3u32, 4, 1, 0, 10, 9] {
        bytes.extend(field.to_le_bytes());
    }
    std::fs::write(&path, &bytes).unwrap();
    let out = run(&["serve", "--restore", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("field `count`"), "no field name: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A running `attrition serve` child: its bound address and the rest of
/// its stdout.
struct ServeChild {
    child: std::process::Child,
    out: std::io::BufReader<std::process::ChildStdout>,
    addr: String,
}

impl ServeChild {
    fn start(args: &[&str]) -> ServeChild {
        use std::io::BufRead;
        let mut child = Command::new(bin())
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("serve must start");
        let mut out = std::io::BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        out.read_line(&mut line).unwrap();
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
            .to_owned();
        ServeChild { child, out, addr }
    }

    /// One request line per entry; each answer's first line.
    fn rpcs(&self, requests: &[&str]) -> Vec<String> {
        use std::io::{BufRead, Write};
        let stream = std::net::TcpStream::connect(&self.addr).expect("connects");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        requests
            .iter()
            .map(|req| {
                writeln!(writer, "{req}").unwrap();
                let mut reply = String::new();
                reader.read_line(&mut reply).unwrap();
                reply.trim_end().to_owned()
            })
            .collect()
    }

    /// `SHUTDOWN`, then the exit status and the rest of stdout.
    fn shut_down(mut self) -> (std::process::ExitStatus, String) {
        assert_eq!(self.rpcs(&["SHUTDOWN"]), ["OK draining"]);
        let status = self.child.wait().expect("serve must exit");
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut self.out, &mut rest).unwrap();
        (status, rest)
    }
}

/// `attrition dump` renders the two files the server writes — a
/// `--snapshot` file and a `--wal-dir` checkpoint — as the same text,
/// and exits nonzero, naming the failure, on a corrupted checkpoint or
/// a file that is neither.
#[test]
fn dump_renders_snapshots_and_checkpoints_and_rejects_corruption() {
    let dir = temp_dir("dump");
    let wal_dir = dir.join("wal");
    let snapshot = dir.join("state.bin");
    let server = ServeChild::start(&[
        "--origin",
        "2012-05-01",
        "--window",
        "1",
        "--wal-dir",
        wal_dir.to_str().unwrap(),
        "--snapshot",
        snapshot.to_str().unwrap(),
    ]);
    let replies = server.rpcs(&["INGEST 5 2012-05-03 1 2", "INGEST 9 2012-05-04 7"]);
    assert_eq!(replies, ["OK 0", "OK 0"]);
    let (status, _) = server.shut_down();
    assert!(status.success());
    let checkpoint = std::fs::read_dir(&wal_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .expect("shutdown wrote a checkpoint");

    let from_snapshot = run(&["dump", snapshot.to_str().unwrap()]);
    assert!(from_snapshot.status.success(), "{}", stderr(&from_snapshot));
    let text = stdout(&from_snapshot);
    assert!(text.starts_with("#monitor,"), "{text}");
    assert!(text.lines().any(|l| l.starts_with("c,5,")), "{text}");
    assert!(text.lines().any(|l| l == "p,9,7,"), "{text}");
    let from_checkpoint = run(&["dump", checkpoint.to_str().unwrap()]);
    assert!(
        from_checkpoint.status.success(),
        "{}",
        stderr(&from_checkpoint)
    );
    assert_eq!(stdout(&from_checkpoint), text, "same state, same rendering");
    assert!(stderr(&from_checkpoint).contains("checkpoint lsn 2"));

    let mut bytes = std::fs::read(&checkpoint).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&checkpoint, &bytes).unwrap();
    let corrupt = run(&["dump", checkpoint.to_str().unwrap()]);
    assert!(!corrupt.status.success());
    assert!(
        stderr(&corrupt).contains("checksum"),
        "{}",
        stderr(&corrupt)
    );

    let text_file = dir.join("state.txt");
    std::fs::write(&text_file, &text).unwrap();
    let neither = run(&["dump", text_file.to_str().unwrap()]);
    assert!(!neither.status.success());
    assert!(
        stderr(&neither).contains("not a binary monitor snapshot"),
        "{}",
        stderr(&neither)
    );
    assert!(!run(&["dump"]).status.success(), "FILE is required");
    std::fs::remove_dir_all(&dir).ok();
}

/// Full binary-level serve round trip: start on an ephemeral port, read
/// the bound address from stdout, speak the protocol over TCP, shut
/// down, and check the summary and the shutdown snapshot.
#[test]
fn serve_responds_over_tcp_and_writes_snapshot_on_shutdown() {
    use std::io::{BufRead, BufReader, Write};

    let dir = temp_dir("servetcp");
    let snapshot = dir.join("state.bin");
    let mut child = Command::new(bin())
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--origin",
            "2012-05-01",
            "--window",
            "1",
            "--snapshot",
            snapshot.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve must start");

    let mut child_out = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    child_out.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .to_owned();

    let stream = std::net::TcpStream::connect(&addr).expect("connects");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    fn rpc(
        writer: &mut std::net::TcpStream,
        reader: &mut BufReader<std::net::TcpStream>,
        req: &str,
    ) -> String {
        writer.write_all(req.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_owned()
    }
    assert_eq!(rpc(&mut writer, &mut reader, "PING"), "PONG");
    assert_eq!(
        rpc(&mut writer, &mut reader, "INGEST 5 2012-05-03 1 2"),
        "OK 0"
    );
    // Month 5 → 7 closes two one-month windows.
    assert_eq!(
        rpc(&mut writer, &mut reader, "INGEST 5 2012-07-03 1"),
        "OK 2"
    );
    let mut closed = String::new();
    for _ in 0..2 {
        let mut l = String::new();
        reader.read_line(&mut l).unwrap();
        closed.push_str(&l);
    }
    assert!(
        closed.lines().all(|l| l.starts_with("CLOSED 5 ")),
        "{closed}"
    );
    let score = rpc(&mut writer, &mut reader, "SCORE 5");
    assert!(score.starts_with("SCORE 5 "), "{score}");
    assert_eq!(rpc(&mut writer, &mut reader, "SHUTDOWN"), "OK draining");

    let status = child.wait().expect("serve must exit");
    assert!(status.success());
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut child_out, &mut rest).unwrap();
    assert!(rest.contains("served 5 requests"), "{rest}");
    assert!(rest.contains("snapshot written"), "{rest}");
    // The snapshot still knows customer 5, and a server restored from
    // it at another shard count answers the identical SCORE line.
    let dump = run(&["dump", snapshot.to_str().unwrap()]);
    assert!(dump.status.success(), "{}", stderr(&dump));
    assert!(stdout(&dump).lines().any(|l| l.starts_with("c,5,")));
    for shards in ["1", "3"] {
        let restored =
            ServeChild::start(&["--restore", snapshot.to_str().unwrap(), "--shards", shards]);
        assert_eq!(
            restored.rpcs(&["SCORE 5"]),
            [score.as_str()],
            "shards {shards}"
        );
        assert!(restored.shut_down().0.success());
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ── `--metrics` observability flag ──────────────────────────────────

/// Minimal JSON value — just enough structure to validate the metrics
/// export and pull out individual numbers (the workspace is
/// dependency-free, so no serde here). The parser keeps every payload
/// so malformed output fails loudly; only `Num` is read back by the
/// assertions, hence the `allow`.
#[derive(Debug)]
#[allow(dead_code)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Strict recursive-descent parser; errors on trailing garbage.
fn parse_json(text: &str) -> Result<Json, String> {
    let bytes: Vec<char> = text.chars().collect();
    let mut pos = 0usize;
    let value = parse_value(&bytes, &mut pos)?;
    skip_ws(&bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[char], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[char], pos: &mut usize, c: char) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {c:?} at {pos}, found {:?}", b.get(*pos)))
    }
}

fn parse_value(b: &[char], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some('{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ':')?;
                entries.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(Json::Obj(entries));
                    }
                    other => return Err(format!("expected , or }} found {other:?}")),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    other => return Err(format!("expected , or ] found {other:?}")),
                }
            }
        }
        Some('"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some('t') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some('f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some('n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if *c == '-' || c.is_ascii_digit() => {
            let start = *pos;
            while *pos < b.len() && (b[*pos].is_ascii_digit() || "+-.eE".contains(b[*pos])) {
                *pos += 1;
            }
            let raw: String = b[start..*pos].iter().collect();
            raw.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {raw:?}"))
        }
        other => Err(format!("unexpected {other:?} at {pos}")),
    }
}

fn parse_lit(b: &[char], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    for c in lit.chars() {
        expect(b, pos, c)?;
    }
    Ok(value)
}

fn parse_string(b: &[char], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, '"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            '"' => return Ok(out),
            '\\' => {
                let esc = b.get(*pos).copied().ok_or("truncated escape")?;
                *pos += 1;
                match esc {
                    '"' | '\\' | '/' => out.push(esc),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let hex: String = b[*pos..(*pos + 4).min(b.len())].iter().collect();
                        *pos += 4;
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("bad escape \\{other}")),
                }
            }
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

#[test]
fn metrics_json_reports_pipeline_stages_and_row_counts() {
    let dir = temp_dir("metricsjson");
    generate_dataset(&dir);
    let receipts = dir.join("receipts.csv");
    let out = run(&[
        "rank",
        "--receipts",
        receipts.to_str().unwrap(),
        "--taxonomy",
        dir.join("taxonomy.csv").to_str().unwrap(),
        "--metrics=json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // The JSON report is the final non-empty stdout line.
    let text = stdout(&out);
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .expect("stdout has a metrics line");
    let report = parse_json(line).unwrap_or_else(|e| panic!("metrics JSON invalid: {e}\n{line}"));

    // Ingest and scoring stages ran, each with non-zero wall time.
    for stage in ["ingest", "scoring", "windowing"] {
        let s = report
            .get("stages")
            .and_then(|v| v.get(stage))
            .unwrap_or_else(|| panic!("stage {stage:?} missing: {line}"));
        assert!(s.get("calls").and_then(Json::num).unwrap_or(0.0) >= 1.0);
        let total = s.get("total_ms").and_then(Json::num).unwrap();
        assert!(total > 0.0, "stage {stage} total_ms = {total}");
    }

    // Rows-read counter matches the input CSV's data-row count.
    let csv = std::fs::read_to_string(&receipts).unwrap();
    let data_rows = csv.lines().filter(|l| !l.trim().is_empty()).count() - 1; // header
    let rows_read = report
        .get("counters")
        .and_then(|c| c.get("store.rows_read"))
        .and_then(Json::num)
        .expect("store.rows_read counter");
    assert_eq!(rows_read as usize, data_rows);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_text_prints_stage_table() {
    let dir = temp_dir("metricstext");
    generate_dataset(&dir);
    let out = run(&[
        "stats",
        "--receipts",
        dir.join("receipts.csv").to_str().unwrap(),
        "--metrics",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("pipeline metrics"),
        "no metrics block:\n{text}"
    );
    assert!(text.contains("ingest"));
    assert!(text.contains("store.rows_read"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_flag_off_prints_no_metrics() {
    let dir = temp_dir("metricsoff");
    generate_dataset(&dir);
    let out = run(&[
        "stats",
        "--receipts",
        dir.join("receipts.csv").to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(!stdout(&out).contains("pipeline metrics"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_rejects_unknown_format() {
    let out = run(&["stats", "--receipts", "x.csv", "--metrics=yaml"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--metrics"));
}
