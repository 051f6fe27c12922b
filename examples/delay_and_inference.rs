//! Extensions walk-through: constraint-based (delay-based) geolocation,
//! DRoP-style rule inference, and the warts-lite binary spool format —
//! the pieces a researcher would reach for when the databases fall short.
//!
//! ```sh
//! cargo run --release --example delay_and_inference
//! ```

use routergeo::dns::{infer_rules, InferenceConfig};
use routergeo::pool::Pool;
use routergeo::rtt::cbg;
use routergeo::trace::{wire, AtlasBuiltins, AtlasConfig, Topology};
use routergeo::world::{World, WorldConfig};

fn main() {
    let world = World::generate(WorldConfig::small(77));
    let topo = Topology::build(&world);
    let records = AtlasBuiltins::new(&world, &topo, AtlasConfig::default()).run();
    println!("{} built-in measurement records", records.len());

    // 1. Spool the campaign to the warts-lite binary format and replay it.
    let spool = wire::write_all(&records);
    let replayed = wire::read_all(&spool).expect("own spool replays");
    let json_size: usize = records.iter().map(|r| r.to_atlas_json().len()).sum();
    println!(
        "warts-lite spool: {} bytes for {} records ({}x smaller than JSON)",
        spool.len(),
        replayed.len(),
        json_size / spool.len().max(1)
    );

    // 2. Delay-based geolocation: use the probes as CBG landmarks.
    let results = cbg::evaluate_cbg(&world, &replayed, 20.0, 2, &Pool::from_env());
    let mut errs: Vec<f64> = results.iter().map(|(_, _, e)| *e).collect();
    errs.sort_by(f64::total_cmp);
    if !errs.is_empty() {
        println!(
            "\nCBG located {} routers: median error {:.1} km, p90 {:.1} km",
            errs.len(),
            errs[errs.len() / 2],
            errs[errs.len() * 9 / 10]
        );
    }
    // Show one worked example.
    if let Some((ip, est, err)) = results.first() {
        println!(
            "  e.g. {ip}: estimate {:.2},{:.2} from {} landmarks \
             (confidence {:.0} km, actual error {err:.1} km)",
            est.coord.lat(),
            est.coord.lon(),
            est.landmarks,
            est.confidence_km
        );
    }

    // 3. Rule inference: learn per-domain hostname rules from RTT-located
    //    addresses, the way DRoP built its 1,398-domain rule base.
    let samples = routergeo::dns::infer::training_from_world(&world, 3);
    let rules = infer_rules(&world, &samples, &InferenceConfig::default());
    println!(
        "\ninferred decoding rules for {} domains from {} training samples:",
        rules.len(),
        samples.len()
    );
    for r in rules.iter().take(10) {
        println!(
            "  {:<22} label #{} as {:?} (support {}, precision {:.1}%)",
            r.rule.domain_suffix,
            r.rule.label_index,
            r.rule.kind,
            r.support,
            r.precision * 100.0
        );
    }
}
