//! Integration tests of the extension APIs (recovery detection, gains
//! curves, ranking, significance variants) against a
//! generated dataset — the features beyond the paper's core that
//! DESIGN.md §7 commits to.

use attrition::eval::GainsCurve;
use attrition::model::{detect_recoveries, stability_series_variant, SignificanceVariant};
use attrition::prelude::*;

fn prepared() -> (
    attrition::datagen::GeneratedDataset,
    WindowedDatabase,
    StabilityMatrix,
) {
    let cfg = ScenarioConfig::small();
    let dataset = attrition::datagen::generate(&cfg);
    let seg_store = dataset.segment_store();
    let db = WindowedDatabase::from_store(
        &seg_store,
        WindowSpec::months(cfg.start, 2),
        cfg.n_months.div_ceil(2),
        WindowAlignment::Global,
    );
    let matrix = StabilityEngine::new(StabilityParams::PAPER).compute(&db);
    (dataset, db, matrix)
}

#[test]
fn ranking_concentrates_on_defectors() {
    let (dataset, db, matrix) = prepared();
    let last = WindowIndex::new(db.num_windows - 1);
    let top20 = matrix.rank_at(last, 20);
    let defectors = top20
        .iter()
        .filter(|(c, _)| dataset.labels.cohort_of(*c).unwrap().is_defector())
        .count();
    assert!(
        defectors >= 17,
        "only {defectors}/20 top-ranked are defectors"
    );
}

#[test]
fn gains_curve_supports_campaign_sizing() {
    let (dataset, db, matrix) = prepared();
    let last = WindowIndex::new(db.num_windows - 1);
    let pairs = matrix.attrition_scores_at(last);
    let labels: Vec<bool> = pairs
        .iter()
        .map(|(c, _)| dataset.labels.cohort_of(*c).unwrap().is_defector())
        .collect();
    let scores: Vec<f64> = pairs.iter().map(|(_, s)| *s).collect();
    let curve = GainsCurve::compute(&labels, &scores);
    // Targeting half the population must capture well over half the
    // defectors (base rate is 50%, detection is strong at the end).
    let captured = curve.captured_at(0.5).unwrap();
    assert!(captured > 0.8, "captured {captured} at 50% targeting");
    // And capturing 80% of defectors must need well under 80% targeting.
    let targeted = curve.targeted_for(0.8).unwrap();
    assert!(targeted < 0.6, "needs {targeted} targeting for 80% capture");
}

#[test]
fn recoveries_exist_for_noisy_loyal_customers() {
    let (dataset, db, _) = prepared();
    // Across a noisy population, some loyal customer misses an item for
    // a window and regains it; recovery detection must surface that and
    // never fire on window 0.
    let mut total_recoveries = 0usize;
    for windows in db.customers() {
        let recs = detect_recoveries(windows, StabilityParams::PAPER, 1.0);
        assert!(recs[0].regained.is_empty());
        total_recoveries += recs.iter().map(|r| r.regained.len()).sum::<usize>();
    }
    assert!(
        total_recoveries > 50,
        "expected recoveries across the population, saw {total_recoveries}"
    );
    drop(dataset);
}

#[test]
fn variants_agree_on_who_is_defecting_late() {
    let (dataset, db, _) = prepared();
    let last = (db.num_windows - 1) as usize;
    for variant in [
        SignificanceVariant::PaperExponential { alpha: 2.0 },
        SignificanceVariant::FrequencyRatio,
        SignificanceVariant::Ewma { lambda: 0.3 },
    ] {
        let mut labels = Vec::new();
        let mut scores = Vec::new();
        for windows in db.customers() {
            let series = stability_series_variant(windows, variant);
            labels.push(
                dataset
                    .labels
                    .cohort_of(windows.customer)
                    .unwrap()
                    .is_defector(),
            );
            scores.push(1.0 - series[last].value);
        }
        let auc = auroc(&labels, &scores);
        assert!(auc > 0.85, "variant {} late AUROC {auc}", variant.label());
    }
}
