//! Collection-pipeline benchmark: one monitoring round against the
//! 19-host fleet — handshake, rsync signature exchange and a small delta
//! per host.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use frostlab_netsim::collector::{Collector, MonitoredHost};
use frostlab_simkern::rng::Rng;
use frostlab_simkern::time::{SimDuration, SimTime};

const FLEET: u32 = 19;

fn fleet(rng: &mut Rng, collector: &Collector) -> Vec<MonitoredHost> {
    (1..=FLEET)
        .map(|id| {
            let mut h = MonitoredHost::new(id, rng, vec![collector.key.public]);
            // A mirror history to delta against: a week of prior rounds.
            for round in 0..500u32 {
                h.append("md5sums.log", format!("{round:08} {id:02} ok\n").as_bytes());
            }
            h
        })
        .collect()
}

fn bench_collection_round(c: &mut Criterion) {
    let mut g = c.benchmark_group("collection");
    g.throughput(Throughput::Elements(FLEET as u64));
    g.bench_function("round_19_hosts", |b| {
        let mut rng = Rng::new(7);
        let mut collector = Collector::new(&mut rng);
        let mut hosts = fleet(&mut rng, &collector);
        // Warm the mirrors so the measured round is the steady state:
        // authenticate + signature exchange + a small delta per host.
        let mut t = SimTime::from_secs(0);
        for h in &mut hosts {
            collector.collect(h, true, t);
        }
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            t += SimDuration::minutes(20);
            for h in &mut hosts {
                h.append("md5sums.log", format!("round {round:010}\n").as_bytes());
                criterion::black_box(collector.collect(h, true, t));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_collection_round);
criterion_main!(benches);
