//! Streaming deployment — the monitor a retailer would actually run:
//! receipts arrive one by one; whenever a customer's calendar crosses a
//! window boundary their stability is scored incrementally and alerts
//! fire for customers whose stability fell under the β threshold.
//!
//! Run: `cargo run --release --example streaming_monitor`

use attrition::model::StabilityMonitor;
use attrition::prelude::*;

fn main() {
    let cfg = ScenarioConfig::small();
    let dataset = attrition::datagen::generate(&cfg);
    let seg_store = dataset.segment_store();
    let spec = WindowSpec::months(cfg.start, 2);
    let beta = StabilityClassifier::new(0.55);

    let mut monitor = StabilityMonitor::new(spec, StabilityParams::PAPER).with_max_explanations(3);

    // Replay the receipt stream in chronological order (a live system
    // would consume a message queue).
    let stream: Vec<(CustomerId, Date, Basket)> = attrition::store::chronological(&seg_store)
        .map(|r| (r.customer, r.date, Basket::new(r.items.to_vec())))
        .collect();
    println!("replaying {} receipts through the monitor…\n", stream.len());

    let mut alerts = 0usize;
    let mut windows_closed = 0usize;
    let mut first_alert: Option<(CustomerId, u32, f64, String)> = None;
    let midpoint = stream.len() / 2;
    for (n, (customer, date, basket)) in stream.into_iter().enumerate() {
        // Halfway through, simulate a process restart: checkpoint the
        // monitor state and restore it — the remaining stream produces
        // identical results (the restart is invisible to the output).
        if n == midpoint {
            let checkpoint = monitor.snapshot_bytes();
            monitor =
                StabilityMonitor::restore_bytes(&checkpoint).expect("own checkpoint restores");
            println!(
                "[restarted from a {}-byte checkpoint at receipt {n}; {} customers restored]\n",
                checkpoint.len(),
                monitor.num_customers()
            );
        }
        for closed in monitor.ingest(customer, date, &basket) {
            windows_closed += 1;
            // Skip the warm-up windows: with no established repertoire the
            // value is noisy (the paper's evaluation also starts late).
            if closed.point.window.raw() < 3 {
                continue;
            }
            if beta.classify(&closed.point) == attrition::model::classifier::Verdict::Defecting {
                alerts += 1;
                if first_alert.is_none() {
                    let lost: Vec<String> = closed
                        .explanation
                        .lost
                        .iter()
                        .map(|l| {
                            dataset
                                .taxonomy
                                .segment(SegmentId::new(l.item.raw()))
                                .map(|s| s.name.clone())
                                .unwrap_or_default()
                        })
                        .collect();
                    first_alert = Some((
                        closed.customer,
                        closed.point.window.raw(),
                        closed.point.value,
                        lost.join(", "),
                    ));
                }
            }
        }
    }
    // End of stream: close every customer's remaining windows.
    let end = cfg.start.add_months(cfg.n_months as i32);
    for closed in monitor.flush_until(end) {
        windows_closed += 1;
        if closed.point.window.raw() >= 3 && closed.point.value <= beta.beta {
            alerts += 1;
        }
    }

    println!("windows scored: {windows_closed}");
    println!("alerts fired (stability ≤ {}): {alerts}", beta.beta);
    if let Some((customer, window, value, lost)) = first_alert {
        println!(
            "first alert: customer {customer} at window {window} (stability {value:.3}) — lost: {lost}"
        );
        let cohort = dataset.labels.cohort_of(customer).unwrap();
        println!("ground truth for that customer: {cohort:?}");
    }

    // Sanity: alerts should concentrate on true defectors.
    let total_defectors = dataset.labels.num_defectors();
    println!(
        "\n({} of {} customers are true defectors; onset at month {})",
        total_defectors,
        dataset.labels.len(),
        cfg.onset_month
    );
}
