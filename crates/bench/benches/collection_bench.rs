//! Collection-pipeline benchmark: one simulated day of 20-minute
//! monitoring rounds against the 19-host fleet — handshake, rsync
//! signature exchange and a small delta per host per round. The hosts
//! rotate their logs at midnight, so every measured day runs the append
//! path, the retirement of yesterday's logs and the cached handshake.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use frostlab_netsim::collector::{Collector, MonitoredHost};
use frostlab_simkern::rng::Rng;
use frostlab_simkern::time::{SimDuration, SimTime};

const FLEET: u32 = 19;
const ROUNDS_PER_DAY: u32 = 72;
/// Days collected before the measurement starts.
const WARM_DAYS: u32 = 3;

struct Site {
    collector: Collector,
    hosts: Vec<MonitoredHost>,
    day: u32,
    t: SimTime,
}

impl Site {
    fn new() -> Site {
        let mut rng = Rng::new(7);
        let collector = Collector::new(&mut rng);
        let hosts = (1..=FLEET)
            .map(|id| MonitoredHost::new(id, &mut rng, vec![collector.key.public]))
            .collect();
        Site {
            collector,
            hosts,
            day: 0,
            t: SimTime::from_secs(0),
        }
    }

    /// One day: rotate every host's logs, then run the day's rounds, each
    /// after a sensor line (and every other round an md5sum line) per host.
    fn day(&mut self) {
        let sensors = format!("sensors-{:04}.log", self.day);
        let md5sums = format!("md5sums-{:04}.log", self.day);
        for h in &mut self.hosts {
            h.rotate();
        }
        for round in 0..ROUNDS_PER_DAY {
            self.t += SimDuration::minutes(20);
            for h in &mut self.hosts {
                let line = format!("{} {:02} cpu=41.5 rh=35\n", self.t.as_secs(), h.id);
                h.append(&sensors, line.as_bytes()).expect("today's log");
                if round % 2 == 0 {
                    let run = format!("{round:08} {:02} 0cc175b9c0f1b6a8 run\n", h.id);
                    h.append(&md5sums, run.as_bytes()).expect("today's log");
                }
                criterion::black_box(self.collector.collect(h, true, self.t));
            }
        }
        self.day += 1;
    }
}

fn bench_collection_day(c: &mut Criterion) {
    let mut g = c.benchmark_group("collection");
    g.throughput(Throughput::Elements(u64::from(FLEET * ROUNDS_PER_DAY)));
    g.bench_function("day_19_hosts", |b| {
        let mut site = Site::new();
        for _ in 0..WARM_DAYS {
            site.day();
        }
        b.iter(|| site.day());
        // Every finished day's logs were retired on both sides; only
        // today's two logs per host still hold bytes.
        let held = 2 * FLEET as usize;
        let retired = 2 * FLEET as usize * (site.day as usize - 1);
        let stores = site.hosts.iter().map(MonitoredHost::footprint);
        assert_eq!(stores.clone().map(|f| f.held_files).sum::<usize>(), held);
        assert_eq!(stores.map(|f| f.retired_files).sum::<usize>(), retired);
        let mirror = site.collector.footprint();
        assert_eq!((mirror.held_files, mirror.retired_files), (held, retired));
    });
    g.finish();
}

criterion_group!(benches, bench_collection_day);
criterion_main!(benches);
