//! The WAL holds exactly the mutations the monitor accepted: an
//! out-of-order `INGEST` is answered `ERR` and never logged, so recovery
//! replays nothing it must skip. This binary holds one test because it
//! reads the process-wide `serve.wal.appends` counter.

use attrition_core::StabilityParams;
use attrition_serve::recovery::{recover, Fallback};
use attrition_serve::{member_responses, BatchScratch, DurabilityConfig, Engine, ShardedMonitor};
use attrition_store::WindowSpec;
use attrition_types::Date;

fn appends() -> u64 {
    attrition_obs::counter("serve.wal.appends").get()
}

#[test]
fn the_log_holds_exactly_the_mutations_answered_ok() {
    attrition_obs::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("attrition_accepted_log_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = WindowSpec::months(Date::from_ymd(2012, 5, 1).unwrap(), 1);
    let open = |durability: Option<&DurabilityConfig>| {
        Engine::open(
            ShardedMonitor::new(4, spec, StabilityParams::PAPER, 5),
            None,
            durability,
            1,
        )
        .expect("engine opens")
    };
    let durable = open(Some(&DurabilityConfig::new(&dir)));
    let memory = open(None);
    let before = appends();

    // Single lines and BATCH frames mixing in-order and out-of-order
    // INGESTs (an earlier window than the customer's current one) and
    // FLUSHes, which move every customer's current window forward.
    let frames: Vec<Vec<&str>> = vec![
        vec!["INGEST 1 2012-07-02 1 2"],
        vec!["INGEST 1 2012-05-02 3"],
        vec![
            "INGEST 1 2012-07-20 4",
            "INGEST 2 2012-06-01 5",
            "INGEST 1 2012-06-30 6",
        ],
        vec!["FLUSH 2012-09-01"],
        vec![
            "INGEST 2 2012-08-31 7",
            "SCORE 1",
            "INGEST 2 2012-09-02 8",
            "FLUSH 2012-10-01",
        ],
        vec![
            "INGEST 3 2012-09-15 9",
            "INGEST 3 2012-09-16 9 10",
            "INGEST 1 2012-08-01 11",
        ],
        vec!["INGEST 1 2012-10-05 12"],
    ];
    let mut accepted = 0u64;
    let mut refused = 0u64;
    let mut scratch = BatchScratch::new();
    for frame in &frames {
        let (got, again) = if frame.len() == 1 {
            (durable.respond(frame[0]).1, memory.respond(frame[0]).1)
        } else {
            let lines: Vec<String> = frame.iter().map(|l| l.to_string()).collect();
            let (mut a, mut b) = (String::new(), String::new());
            durable.respond_batch(&lines, &mut scratch, &mut a);
            memory.respond_batch(&lines, &mut scratch, &mut b);
            (a, b)
        };
        assert_eq!(got, again, "durability changes no answer: {frame:?}");
        let body = got.strip_prefix(&format!("OKBATCH {}\n", frame.len()));
        let responses: Vec<&str> = match body {
            Some(body) if frame.len() > 1 => member_responses(body).collect(),
            _ => vec![got.as_str()],
        };
        for (line, response) in frame.iter().zip(responses) {
            if line.starts_with("INGEST") || line.starts_with("FLUSH") {
                if response.starts_with("OK") {
                    accepted += 1;
                } else {
                    assert!(
                        response.starts_with("ERR out-of-order"),
                        "{line} -> {response}"
                    );
                    refused += 1;
                }
            }
        }
    }
    assert_eq!(refused, 4, "the script backdates four receipts");
    assert_eq!(durable.wal_last_seq(), accepted);
    assert_eq!(appends() - before, accepted, "serve.wal.appends");

    // Recovery replays every record: none is skipped, none refused.
    let live = durable.monitor().snapshot_bytes();
    drop(durable);
    let fallback = Fallback {
        spec,
        params: StabilityParams::PAPER,
        max_explanations: 5,
    };
    let (recovered, stats) = recover(&dir, Some(&fallback)).expect("recovery succeeds");
    assert_eq!((stats.replayed, stats.next_seq), (accepted, accepted + 1));
    assert_eq!(recovered.snapshot_bytes(), live);
    let _ = std::fs::remove_dir_all(&dir);
}
