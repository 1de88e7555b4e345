//! Small helpers shared by every workload: order statistics, time,
//! process memory and result formatting.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending slice (`q` in 0..=100).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile `q` of each of `k` consecutive slices (by time) of
/// `(time, latency)` samples.
pub fn slice_percentiles(samples: &[(f64, f64)], q: f64, k: usize) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.0.total_cmp(&b.0));
    let per = s.len().div_ceil(k.max(1)).max(1);
    s.chunks(per)
        .map(|c| {
            let mut v: Vec<f64> = c.iter().map(|x| x.1).collect();
            v.sort_by(f64::total_cmp);
            percentile(&v, q)
        })
        .collect()
}

/// Completion rate of each of `k` consecutive slices of equal work, from
/// `(completion time, requests completed)` events timed from the phase
/// start.
pub fn slice_rates(done: &[(f64, u32)], k: usize) -> Vec<f64> {
    let mut d = done.to_vec();
    d.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = d.iter().map(|x| u64::from(x.1)).sum();
    let mut rates = Vec::new();
    let (mut cum, mut slice_cum, mut slice_t) = (0u64, 0u64, 0.0);
    for (t, n) in d {
        cum += u64::from(n);
        if cum * k as u64 >= (rates.len() as u64 + 1) * total {
            rates.push((cum - slice_cum) as f64 / (t - slice_t));
            (slice_cum, slice_t) = (cum, t);
        }
    }
    rates
}

/// Which way a figure improves.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// The quartile of `values` on the good side: the upper quartile of a
/// rate, the lower quartile of a time. Neighbours on a shared host only
/// ever slow work down, so this figure follows the code under test and
/// moves much less with the host's load than a mean or a median does.
pub fn good_quartile(values: &[f64], better: Better) -> f64 {
    good_side(values, better, 25.0)
}

/// The decile of `values` on the good side: for the timed figures of a
/// run (throughput and latency slices, restarts), where storage and
/// scheduling stalls on a shared host touch most samples but seldom all.
pub fn good_decile(values: &[f64], better: Better) -> f64 {
    good_side(values, better, 10.0)
}

fn good_side(values: &[f64], better: Better, share: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(
        &v,
        if better == Better::Higher {
            100.0 - share
        } else {
            share
        },
    )
}

/// Sleep until `due`, then spin the last stretch so an open-loop sender
/// starts close to its schedule without burning a core between sends.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// A field (in kB) of `/proc/<pid>/status`, as bytes.
pub fn proc_status_bytes(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// FNV-1a 64 over bytes: the checksum of a rendered output.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// SplitMix64: the benchmark's own deterministic stream for shuffles.
pub struct Mix(pub u64);

impl Mix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, when it is an order statistic.
    pub samples: Option<usize>,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness mismatches, each described in one line.
    pub mismatches: Vec<String>,
    /// Extra `key: value` lines for the human-readable summary.
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples: None,
        });
    }

    pub fn put_n(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples: Some(n),
        });
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    pub fn mismatch(&mut self, what: impl Into<String>) {
        let what = what.into();
        if self.mismatches.len() < 20 {
            eprintln!("perfbench: MISMATCH {what}");
        }
        self.mismatches.push(what);
    }
}

/// A JSON number: finite values with every digit, others as `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Minimal JSON string escaping.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
