//! Pooled (FaaS-style) execution: pooled digis behave like dedicated ones
//! from an application's point of view, at a fraction of the runtime cost.

use std::collections::BTreeMap;

use digibox_core::program::{DigiProgram, LoopCtx, SimCtx};
use digibox_core::{AppEvent, Catalog, Testbed, TestbedConfig};
use digibox_model::{vmap, FieldKind, Schema, Value};
use digibox_net::{LinkSpec, SimDuration, Topology};

struct Counter;
impl DigiProgram for Counter {
    fn kind(&self) -> &str {
        "Counter"
    }
    fn version(&self) -> &str {
        "v1"
    }
    fn program_id(&self) -> &str {
        "test/counter"
    }
    fn schema(&self) -> Schema {
        Schema::new("Counter", "v1")
            .field("n", FieldKind::int())
            .field("limit", FieldKind::pair(FieldKind::int()))
            // schemaless, default `null`: checkpoints must keep null leaves
            .field("note", FieldKind::Any)
    }
    fn on_loop(&mut self, ctx: &mut LoopCtx) {
        let n = ctx.model.lookup(&"n".into()).and_then(Value::as_int).unwrap_or(0);
        ctx.update(vmap! { "n" => n + 1 });
    }
    fn on_model(&mut self, ctx: &mut SimCtx) {
        if let Some(want) = ctx.intent("limit").cloned() {
            ctx.set_status("limit", want);
        }
    }
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(|| Box::new(Counter)).unwrap();
    c
}

fn names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("C{i}")).collect()
}

#[test]
fn pooled_digis_tick_and_publish() {
    let mut tb = Testbed::laptop(catalog(), TestbedConfig::default());
    let (pool, _) = tb.run_pool("Counter", &names(10), BTreeMap::new(), false).unwrap();
    tb.run_for(SimDuration::from_secs(5));
    let p = pool.borrow();
    assert_eq!(p.len(), 10);
    let stats = p.stats();
    assert!(stats.ticks_dispatched >= 30, "ticks: {}", stats.ticks_dispatched);
    // tick groups consolidate: far fewer wakeups than (cells × ticks)
    assert!(stats.timer_wakeups <= stats.ticks_dispatched);
    for name in p.names() {
        let n = p.model(name).unwrap().lookup(&"n".into()).and_then(Value::as_int).unwrap();
        assert!(n >= 3, "{name} only ticked {n} times");
    }
    // the trace logged pooled digi events like any other digi's
    assert!(tb.log().view().source("C0").tag("event").count() >= 3);
}

#[test]
fn pooled_rest_api_is_indistinguishable() {
    let mut tb = Testbed::laptop(catalog(), TestbedConfig::default());
    let (_pool, pool_addr) = tb.run_pool("Counter", &names(3), BTreeMap::new(), true).unwrap();
    tb.run_for(SimDuration::from_secs(1));
    let app = tb.app(pool_addr.node);
    app.borrow_mut().get(tb.sim(), pool_addr, "/digi/C1/model");
    tb.run_for(SimDuration::from_millis(200));
    let events = app.borrow_mut().poll_all();
    let AppEvent::Response { status, body, .. } = &events[0] else {
        panic!("expected response, got {events:?}");
    };
    assert_eq!(*status, 200);
    let json = digibox_model::json::decode(body).unwrap();
    assert_eq!(json.get("meta").and_then(|m| m.get("name")), Some(&"C1".into()));
    // unknown digi in the pool → 404
    app.borrow_mut().get(tb.sim(), pool_addr, "/digi/ghost/model");
    tb.run_for(SimDuration::from_millis(200));
    let events = app.borrow_mut().poll_all();
    assert!(matches!(events[0], AppEvent::Response { status: 404, .. }));
}

#[test]
fn pooled_intents_arrive_over_mqtt() {
    let mut tb = Testbed::laptop(catalog(), TestbedConfig::default());
    let (pool, _) = tb.run_pool("Counter", &names(3), BTreeMap::new(), true).unwrap();
    tb.run_for(SimDuration::from_secs(1));
    // publish an intent through the broker, exactly like `dbox edit`
    let app = tb.app_with_mqtt(tb.broker_addr().node, "editor");
    tb.run_for(SimDuration::from_millis(100));
    app.borrow_mut().publish(
        tb.sim(),
        "digibox/digi/C2/intent",
        &br#"{"limit": 99}"#[..],
        digibox_broker::QoS::AtLeastOnce,
    );
    tb.run_for(SimDuration::from_millis(500));
    let p = pool.borrow();
    let limit = p
        .model("C2")
        .unwrap()
        .status(&"limit".into())
        .unwrap()
        .as_int();
    assert_eq!(limit, Some(99));
    // only the addressed cell changed
    assert_eq!(
        p.model("C1").unwrap().status(&"limit".into()).unwrap().as_int(),
        Some(0)
    );
}

#[test]
fn pooled_digis_hear_intents_after_a_broker_restart() {
    for outage_ms in [500, 2_000, 5_000] {
        let mut tb = Testbed::laptop(catalog(), TestbedConfig::default());
        tb.run("Counter", "D").unwrap();
        let (pool, _) = tb.run_pool("Counter", &names(2), BTreeMap::new(), false).unwrap();
        tb.run_for(SimDuration::from_secs(2));
        tb.kill_broker(SimDuration::from_millis(outage_ms));
        tb.run_for(SimDuration::from_secs(15));
        let app = tb.app_with_mqtt(tb.broker_addr().node, "editor");
        tb.run_for(SimDuration::from_millis(100));
        for digi in ["D", "C1"] {
            app.borrow_mut().publish(
                tb.sim(),
                &format!("digibox/digi/{digi}/intent"),
                &br#"{"limit": 99}"#[..],
                digibox_broker::QoS::AtLeastOnce,
            );
        }
        tb.run_for(SimDuration::from_secs(1));
        let limit = |model: &digibox_model::Model| model.status(&"limit".into()).unwrap().as_int();
        assert_eq!(limit(&tb.check("D").unwrap()), Some(99), "dedicated, outage {outage_ms} ms");
        assert_eq!(
            limit(pool.borrow().model("C1").unwrap()),
            Some(99),
            "pooled digi deaf after a {outage_ms} ms broker outage"
        );
    }
}

#[test]
fn pooled_rest_jitter_follows_the_seed() {
    let latencies = |seed: u64| {
        // zero-jitter links: the pool's service time is the only random
        // part of a GET's latency
        let mut topo = Topology::single_laptop();
        topo.set_loopback(LinkSpec {
            base_delay: SimDuration::from_micros(50),
            jitter: SimDuration::ZERO,
            loss: 0.0,
            bandwidth_bps: 0,
        });
        let config = TestbedConfig { seed, ..Default::default() };
        let mut tb = Testbed::new(topo, catalog(), config);
        let (_pool, pool_addr) = tb.run_pool("Counter", &names(3), BTreeMap::new(), true).unwrap();
        tb.run_for(SimDuration::from_secs(1));
        let app = tb.app(pool_addr.node);
        let mut got = Vec::new();
        for _ in 0..8 {
            app.borrow_mut().get(tb.sim(), pool_addr, "/digi/C1/model");
            tb.run_for(SimDuration::from_millis(100));
            for event in app.borrow_mut().poll_all() {
                let AppEvent::Response { status: 200, latency, .. } = event else {
                    panic!("expected a 200 response, got {event:?}");
                };
                got.push(latency);
            }
        }
        assert_eq!(got.len(), 8);
        got
    };
    assert_eq!(latencies(1), latencies(1));
    assert_ne!(latencies(1), latencies(2), "pooled REST jitter ignores the seed");
}

#[test]
fn pool_uses_one_broker_session_for_all_cells() {
    let mut tb = Testbed::laptop(catalog(), TestbedConfig::default());
    let sessions_before = tb.broker().borrow().session_count();
    let (_pool, _) = tb.run_pool("Counter", &names(50), BTreeMap::new(), false).unwrap();
    tb.run_for(SimDuration::from_secs(2));
    let sessions_after = tb.broker().borrow().session_count();
    assert_eq!(
        sessions_after - sessions_before,
        1,
        "50 pooled digis must share one broker session"
    );
}

#[test]
fn pooled_checkpoints_snapshot_columns_and_restore_in_place() {
    // no periodic checkpoints: the explicit one below must stay the latest
    let config = TestbedConfig { checkpoint_every: None, ..Default::default() };
    let mut tb = Testbed::laptop(catalog(), config);
    let (pool, _) = tb.run_pool("Counter", &names(5), BTreeMap::new(), false).unwrap();
    tb.run_for(SimDuration::from_secs(3));
    let n_at_ckpt = pool
        .borrow()
        .model("C3")
        .unwrap()
        .lookup(&"n".into())
        .and_then(Value::as_int)
        .unwrap();
    assert!(n_at_ckpt >= 2);
    tb.checkpoint_all();
    // every pooled member got a snapshot, read out of its cell's model
    for name in ["C0", "C1", "C2", "C3", "C4"] {
        let info = tb.checkpoints().info(name).unwrap();
        assert!(info.revision > 0, "{name} checkpointed at revision 0");
    }
    // let the counter advance past the checkpoint, then roll C3 back
    tb.run_for(SimDuration::from_secs(3));
    let n_later = pool
        .borrow()
        .model("C3")
        .unwrap()
        .lookup(&"n".into())
        .and_then(Value::as_int)
        .unwrap();
    assert!(n_later > n_at_ckpt, "counter should advance between checkpoints");
    assert!(tb.restore_pooled("C3"));
    let p = pool.borrow();
    let n_restored = p.model("C3").unwrap().lookup(&"n".into()).and_then(Value::as_int).unwrap();
    assert_eq!(n_restored, n_at_ckpt, "restore must rewind to the checkpointed value");
    // the cell kept its slab slot: same arena id before and after
    assert!(p.id_of("C3").is_some());
    // unknown / un-pooled names restore nothing
    drop(p);
    assert!(!tb.restore_pooled("ghost"));
}

#[test]
fn pooled_checkpoints_keep_null_fields() {
    let config = TestbedConfig { checkpoint_every: None, ..Default::default() };
    let mut tb = Testbed::laptop(catalog(), config);
    // managed (paused) digis keep their initial fields: one dedicated, one pooled
    tb.run_with("Counter", "D0", BTreeMap::new(), true).unwrap();
    tb.run_pool("Counter", &["Q0".to_string()], BTreeMap::new(), true).unwrap();
    let (pool, _) = tb.run_pool("Counter", &["P0".to_string()], BTreeMap::new(), false).unwrap();
    tb.run_for(SimDuration::from_secs(3));
    let at_ckpt = pool.borrow().model("P0").unwrap().fields().clone();
    assert_eq!(at_ckpt.get("note"), Some(&Value::Null));
    tb.checkpoint_all();
    assert_eq!(
        tb.checkpoints().info("Q0").unwrap().digest,
        tb.checkpoints().info("D0").unwrap().digest,
        "a pooled checkpoint must digest like a dedicated one with the same fields"
    );
    tb.run_for(SimDuration::from_secs(3));
    assert_ne!(pool.borrow().model("P0").unwrap().fields(), &at_ckpt);
    assert!(tb.restore_pooled("P0"));
    assert_eq!(pool.borrow().model("P0").unwrap().fields(), &at_ckpt);
}

#[test]
fn digi_names_and_check_cover_pooled_digis() {
    let mut tb = Testbed::laptop(catalog(), TestbedConfig::default());
    tb.run("Counter", "B").unwrap();
    tb.run("Counter", "D").unwrap();
    let (pool, _) = tb.run_pool("Counter", &names(3), BTreeMap::new(), false).unwrap();
    tb.run_for(SimDuration::from_secs(1));
    let all = tb.digi_names();
    assert_eq!(all, ["B", "C0", "C1", "C2", "D"]);
    assert_eq!(all.len(), tb.digi_count());
    for name in names(3) {
        let model = tb.check(&name).unwrap();
        assert_eq!(&model, pool.borrow().model(&name).unwrap());
    }
    assert!(tb.check("ghost").is_err());
}

#[test]
fn evicted_cell_stops_ticking() {
    let mut tb = Testbed::laptop(catalog(), TestbedConfig::default());
    let (pool, _) = tb.run_pool("Counter", &names(2), BTreeMap::new(), false).unwrap();
    tb.run_for(SimDuration::from_secs(2));
    {
        let pool = pool.clone();
        let mut p = pool.borrow_mut();
        assert!(p.evict(tb.sim(), "C0"));
        assert!(!p.evict(tb.sim(), "C0"), "double evict is a no-op");
    }
    tb.run_for(SimDuration::from_secs(3));
    let p = pool.borrow();
    assert_eq!(p.len(), 1);
    assert!(p.model("C0").is_none());
    // C1 keeps running
    let n = p.model("C1").unwrap().lookup(&"n".into()).and_then(Value::as_int).unwrap();
    assert!(n >= 4);
}
