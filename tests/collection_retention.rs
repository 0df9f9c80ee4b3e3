//! The collector keeps only what the next round needs: the hosts' log
//! stores and the collector's mirrors hold the live (current-day) logs,
//! and every rotated log that has been synced is retired to its name and
//! length. Bytes are counted from the stores' and mirrors' own books, not
//! from process memory, so the test is deterministic.

use std::cell::RefCell;
use std::rc::Rc;

use frostlab::core::{CampaignCtx, ExperimentConfig, ScenarioBuilder, TickPhase};
use frostlab::netsim::collector::{Footprint, RSYNC_BLOCK};
use frostlab::simkern::time::{Date, SimDuration, SimTime};

/// What the probe saw at the campaign's last tick.
#[derive(Debug, Default)]
struct Seen {
    /// Per host: the store's footprint and the bytes it logged today.
    stores: Vec<(Footprint, usize)>,
    mirror: Footprint,
    all_reached_today: bool,
}

/// Runs after the collection phase and tracks, per host, how many bytes
/// its store had logged when the date last rolled.
struct Probe {
    day: Option<Date>,
    /// Per host: bytes logged at the end of the previous tick.
    logged: Vec<usize>,
    /// Per host: bytes logged when the current date began.
    at_midnight: Vec<usize>,
    seen: Rc<RefCell<Seen>>,
}

impl TickPhase for Probe {
    fn name(&self) -> &str {
        "retention-probe"
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        let stores = &ctx.fleet.stores;
        if self.logged.is_empty() {
            self.logged = vec![0; stores.len()];
        }
        let today = ctx.now.date();
        if self.day != Some(today) {
            self.day = Some(today);
            self.at_midnight = self.logged.clone();
        }
        for (logged, store) in self.logged.iter_mut().zip(stores) {
            *logged = store.footprint().logged_bytes;
        }
        if ctx.now + ctx.cfg.tick > ctx.cfg.end {
            let midnight = today.to_sim_time();
            let mut seen = self.seen.borrow_mut();
            seen.stores = stores
                .iter()
                .zip(&self.at_midnight)
                .map(|(store, &before)| {
                    let f = store.footprint();
                    (f, f.logged_bytes - before)
                })
                .collect();
            seen.mirror = ctx.collector.footprint();
            seen.all_reached_today = ctx.fleet.plans.iter().enumerate().all(|(i, p)| {
                !ctx.fleet.installed(i, ctx.now)
                    || ctx.collector.last_success(p.id) >= Some(midnight)
            });
        }
    }
}

#[test]
fn a_two_week_campaign_retains_only_the_live_logs() {
    // 19 hosts, 14 days from Mar 27, every host installed; the window ends
    // on the last 20-minute round before midnight, so the live logs hold
    // a full day.
    let start = SimTime::from_date(2010, 3, 27);
    let cfg = ExperimentConfig {
        start,
        end: start + SimDuration::days(14) - SimDuration::minutes(20),
        ..ExperimentConfig::paper_scripted(42)
    };
    let seen = Rc::new(RefCell::new(Seen::default()));
    let probe = Probe {
        day: None,
        logged: Vec::new(),
        at_midnight: Vec::new(),
        seen: Rc::clone(&seen),
    };
    ScenarioBuilder::paper(cfg)
        .insert_after("collection", Box::new(probe))
        .build()
        .run();

    let seen = seen.borrow();
    assert_eq!(seen.stores.len(), 19);
    assert!(
        seen.all_reached_today,
        "every installed host was collected since midnight"
    );
    for (host, &(f, today)) in seen.stores.iter().enumerate() {
        // A store holds exactly the bytes logged today, in at most the
        // day's sensor and md5sum logs; everything older is retired.
        assert_eq!(f.held_bytes, today, "host index {host}");
        assert!(f.held_files <= 2, "host index {host}: {f:?}");
    }
    let stores: Footprint = seen.stores.iter().map(|&(f, _)| f).sum();
    // Two weeks were logged; one day is held.
    assert_eq!(stores.retired_files, 19 * 2 * 13, "{stores:?}");
    assert!(stores.logged_bytes > 10 * stores.held_bytes, "{stores:?}");
    // The mirror has synced everything, retired what the stores retired,
    // and keeps at most one partial rsync block per live log.
    let mirror = seen.mirror;
    assert_eq!(mirror.logged_bytes, stores.logged_bytes);
    assert_eq!(mirror.held_files, stores.held_files);
    assert_eq!(mirror.retired_files, stores.retired_files);
    assert!(mirror.held_bytes < RSYNC_BLOCK * mirror.held_files);
}
