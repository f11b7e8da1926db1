//! `DigiPool` — many digis behind one service: the paper's §6 open
//! question made concrete.
//!
//! > "an open question is how to make these large-scale simulations more
//! > efficient, i.e., running a higher number of mocks/scenes with a fixed
//! > amount of compute resource budget. E.g., given the event-driven
//! > nature of IoT apps, whether/how we can leverage Function-as-a-Service
//! > (FaaS) to run the simulator logic of mocks and scenes."
//!
//! A pool is the FaaS executor: it hosts N [`DigiCell`]s behind **one**
//! network endpoint and **one** MQTT session, invoking each cell's handlers
//! only when its events are due or its messages arrive. Compared to
//! one-microservice-per-mock this removes the per-digi broker session and
//! per-digi endpoint — the fixed-cost floor that dominates at thousands of
//! mostly-idle mocks. The `e9_faas_pooling` bench quantifies the
//! difference.
//!
//! ## Storage: arena slabs + tick groups
//!
//! Cells live in a [`DigiArena`] — contiguous slabs addressed by a dense
//! [`DigiId`] (a packed slot index plus a generation tag, so a recycled
//! slot invalidates every stale handle) — instead of a per-digi
//! `Rc<RefCell<...>>` object graph. Each hosted model lives only in its
//! cell: readers (checkpointing, state digests) read it there, exactly
//! as they read a dedicated digi's model.
//!
//! ## Scheduling: one kernel timer per (interval, pool)
//!
//! Periodic ticks are driven by *tick groups*: the pool arms **one**
//! kernel timer per distinct loop interval and, when it fires, walks
//! the group's members in insertion order — a dense run over the arena —
//! instead of keeping one queued timer per digi. At 100k mostly-idle mocks
//! this turns 100k queue entries into a handful. Cells hosted into an
//! already-armed group adopt the group's phase (they first tick at the
//! group's next firing); stale members left behind by evictions are
//! skipped and compacted on the next firing. Same-instant datagram batches
//! coalesced by the kernel ([`Service::on_datagram_batch`]) are ingested
//! whole and pumped once per batch.
//!
//! ## Session loss
//!
//! When the broker session dies (the broker was killed, or a partition
//! outlasted the transport's retries), the next tick-group firing
//! reconnects, re-subscribes every hosted cell's command topics and its
//! attached children's model topics, and republishes every hosted model —
//! what a dedicated digi does on its next loop tick.
//!
//! Semantics are unchanged: pooled digis publish/subscribe the same topics
//! and serve the same REST API (routed as `/digi/<name>/...`), so
//! applications and parent scenes cannot tell a pooled mock from a
//! dedicated one. Scenes can be pooled too, but the intended use is large
//! fleets of mocks (the paper's 1000-sensor experiment).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap}; // hash maps for keyed lookup; `dbox audit` (DH0002) checks every iteration site
use std::rc::Rc;

use digibox_net::bytes::Bytes;

use digibox_broker::{ClientEvent, MqttConn, QoS};
use digibox_model::{Model, Value};
use digibox_net::httpx::{Request, Response};
use digibox_net::transport::{ReliableEndpoint, TransportEvent};
use digibox_net::{Addr, Datagram, Prng, Service, ServiceHandle, Sim, SimDuration, TimerToken};
use digibox_trace::TraceLog;

use crate::cell::{DigiCell, Outbox};
use crate::program::DigiProgram;
use crate::topics;

/// Tag bit for tick-group timers. Disjoint from the reliable-transport
/// bit (1 << 63), the endpoint token spaces (bits 48..63) and the HTTP
/// response tag (1 << 60). The low bits carry the group's interval in ms.
const TICK_TOKEN_TAG: TimerToken = 1 << 59;
/// Tag bit for delayed HTTP responses.
const RESPONSE_TOKEN_TAG: TimerToken = 1 << 60;
/// Token space of the HTTP endpoint.
const HTTP_TOKEN_SPACE: u16 = 2;

// ---- arena -----------------------------------------------------------------

/// Bits of a [`DigiId`] spent on the slot index: 2^20 slots ≥ the
/// million-digi target.
const ID_SLOT_BITS: u32 = 20;
const ID_SLOT_MASK: u32 = (1 << ID_SLOT_BITS) - 1;
/// Remaining bits tag the generation; wraps after 4096 recycles of a slot.
const ID_GEN_MASK: u32 = (1 << (32 - ID_SLOT_BITS)) - 1;
/// Entries per slab: large enough for cache-dense scans, small enough that
/// growing a mostly-empty pool doesn't overallocate.
const SLAB_CAP: usize = 1024;

/// Dense generational handle into an [`Arena`]: a packed `(slot, gen)`
/// pair. The generation tag makes stale handles safe — after a slot is
/// recycled, ids from its previous life no longer resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DigiId(u32);

impl DigiId {
    fn pack(slot: u32, gen: u32) -> DigiId {
        debug_assert!(slot <= ID_SLOT_MASK);
        DigiId(slot | (gen << ID_SLOT_BITS))
    }

    /// The slab slot index (dense, recycled).
    pub fn slot(self) -> u32 {
        self.0 & ID_SLOT_MASK
    }

    /// The generation tag guarding against stale handles.
    pub fn generation(self) -> u32 {
        self.0 >> ID_SLOT_BITS
    }

    /// The packed raw id.
    pub fn raw(self) -> u32 {
        self.0
    }
}

struct ArenaSlot<T> {
    gen: u32,
    value: Option<T>,
}

/// Slab-backed generational arena: values live in contiguous fixed-size
/// slabs, slots are recycled LIFO, and every handle carries a generation
/// tag so a stale [`DigiId`] can never reach a recycled slot's new tenant.
pub struct Arena<T> {
    slabs: Vec<Vec<ArenaSlot<T>>>,
    free: Vec<u32>,
    next_slot: u32,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Arena<T> {
        Arena { slabs: Vec::new(), free: Vec::new(), next_slot: 0, len: 0 }
    }

    /// Live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no values are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots ever allocated (live + free).
    pub fn capacity(&self) -> usize {
        self.next_slot as usize
    }

    fn slot_ref(&self, slot: u32) -> Option<&ArenaSlot<T>> {
        self.slabs.get(slot as usize / SLAB_CAP)?.get(slot as usize % SLAB_CAP)
    }

    fn slot_mut(&mut self, slot: u32) -> Option<&mut ArenaSlot<T>> {
        self.slabs.get_mut(slot as usize / SLAB_CAP)?.get_mut(slot as usize % SLAB_CAP)
    }

    /// Store a value, reusing the most recently freed slot if any.
    pub fn insert(&mut self, value: T) -> DigiId {
        self.len += 1;
        if let Some(slot) = self.free.pop() {
            let s = self.slot_mut(slot).expect("free-listed slot exists");
            debug_assert!(s.value.is_none());
            s.value = Some(value);
            return DigiId::pack(slot, s.gen);
        }
        let slot = self.next_slot;
        assert!(slot <= ID_SLOT_MASK, "arena full: 2^{ID_SLOT_BITS} slots");
        self.next_slot += 1;
        if self.slabs.last().map_or(true, |s| s.len() == SLAB_CAP) {
            self.slabs.push(Vec::with_capacity(SLAB_CAP));
        }
        self.slabs
            .last_mut()
            .expect("slab pushed above")
            .push(ArenaSlot { gen: 0, value: Some(value) });
        DigiId::pack(slot, 0)
    }

    /// Remove and return the value behind `id`, bumping the slot's
    /// generation so `id` (and any copy of it) goes stale. `None` if the
    /// handle is already stale.
    pub fn remove(&mut self, id: DigiId) -> Option<T> {
        let s = self.slot_mut(id.slot())?;
        if s.gen != id.generation() || s.value.is_none() {
            return None;
        }
        let v = s.value.take();
        s.gen = (s.gen + 1) & ID_GEN_MASK;
        self.free.push(id.slot());
        self.len -= 1;
        v
    }

    /// Generation-checked read. `None` for stale or never-issued handles.
    pub fn get(&self, id: DigiId) -> Option<&T> {
        let s = self.slot_ref(id.slot())?;
        if s.gen != id.generation() {
            return None;
        }
        s.value.as_ref()
    }

    /// Generation-checked mutable read.
    pub fn get_mut(&mut self, id: DigiId) -> Option<&mut T> {
        let s = self.slot_mut(id.slot())?;
        if s.gen != id.generation() {
            return None;
        }
        s.value.as_mut()
    }

    /// Whether `id` still resolves.
    pub fn contains(&self, id: DigiId) -> bool {
        self.get(id).is_some()
    }

    /// Iterate live entries in slot (slab) order.
    pub fn iter(&self) -> impl Iterator<Item = (DigiId, &T)> {
        self.slabs.iter().enumerate().flat_map(|(si, slab)| {
            slab.iter().enumerate().filter_map(move |(i, s)| {
                let v = s.value.as_ref()?;
                Some((DigiId::pack((si * SLAB_CAP + i) as u32, s.gen), v))
            })
        })
    }
}

/// The pool's cell storage: a slab arena of [`DigiCell`]s.
pub type DigiArena = Arena<DigiCell>;

// ---- pool ------------------------------------------------------------------

/// Pool-level counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolStats {
    /// Digis currently hosted.
    pub cells: usize,
    /// Event-generation ticks dispatched to cells.
    pub ticks_dispatched: u64,
    /// Kernel timer wakeups taken by the pool (one per tick-group firing).
    pub timer_wakeups: u64,
    /// REST requests served across all hosted digis.
    pub rest_requests: u64,
    /// MQTT messages routed into hosted cells.
    pub messages_in: u64,
    /// Same-instant datagram batches ingested whole (kernel coalescing).
    pub batched_deliveries: u64,
}

/// One tick group: every hosted cell sharing a loop interval, driven by a
/// single kernel timer.
#[derive(Default)]
struct TickGroup {
    /// Members in host order; stale ids are compacted on firing.
    members: Vec<DigiId>,
    /// Whether a timer for this group is in flight.
    armed: bool,
}

/// A FaaS-style executor hosting many digis behind one service.
pub struct DigiPool {
    addr: Addr,
    conn: MqttConn,
    http: ReliableEndpoint,
    arena: DigiArena,
    /// Name → id, sorted (iteration order = digest order).
    ids: BTreeMap<String, DigiId>,
    /// Interval (ms) → tick group; one kernel timer per armed group.
    tick_groups: BTreeMap<u64, TickGroup>,
    service_overhead: SimDuration,
    overhead_rng: Prng,
    pending_responses: HashMap<TimerToken, (Addr, Bytes)>,
    next_response_token: u64,
    /// Set when the MQTT session died; the next tick-group firing
    /// reconnects (see the module doc).
    reconnect_pending: bool,
    stats: PoolStats,
}

impl DigiPool {
    /// A pool at `addr` speaking MQTT to `broker`, with per-message
    /// service overhead applied to REST responses, jittered from
    /// `overhead_rng` (split from the kernel seed, so it follows the run's
    /// seed like every other stream).
    pub fn new(
        addr: Addr,
        broker: Addr,
        service_overhead: SimDuration,
        overhead_rng: Prng,
    ) -> ServiceHandle<DigiPool> {
        Rc::new(RefCell::new(DigiPool {
            conn: MqttConn::new(addr, broker, &format!("pool/{addr}")),
            http: ReliableEndpoint::new(addr).with_space(HTTP_TOKEN_SPACE),
            addr,
            arena: Arena::new(),
            ids: BTreeMap::new(),
            tick_groups: BTreeMap::new(),
            service_overhead,
            overhead_rng,
            pending_responses: HashMap::new(),
            next_response_token: 0,
            reconnect_pending: false,
            stats: PoolStats::default(),
        }))
    }

    /// The pool's bound address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Digis currently hosted.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether the pool hosts no digis.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Counters, with the live cell count filled in.
    pub fn stats(&self) -> PoolStats {
        PoolStats { cells: self.arena.len(), ..self.stats.clone() }
    }

    /// Hosted digi names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.ids.keys().map(String::as_str).collect()
    }

    /// The arena id of a hosted digi.
    pub fn id_of(&self, name: &str) -> Option<DigiId> {
        self.ids.get(name).copied()
    }

    /// A hosted digi's current model, if hosted here.
    pub fn model(&self, name: &str) -> Option<&Model> {
        self.arena.get(*self.ids.get(name)?).map(DigiCell::model)
    }

    /// A hosted digi's cell, if hosted here.
    pub fn cell(&self, name: &str) -> Option<&DigiCell> {
        self.arena.get(*self.ids.get(name)?)
    }

    /// Overwrite a hosted digi's fields (checkpoint restore). The cell
    /// keeps its slab slot and tick group; the model is republished.
    /// Returns `false` if not hosted here.
    pub fn restore_fields(&mut self, sim: &mut Sim, name: &str, fields: Value) -> bool {
        let Some(&id) = self.ids.get(name) else {
            return false;
        };
        let now = sim.now();
        let Some(cell) = self.arena.get_mut(id) else {
            return false;
        };
        let mut out = Outbox::new();
        cell.force_fields(now, fields, &mut out);
        self.flush(sim, out);
        true
    }

    /// Host a digi in this pool. Must be called *after* the pool is bound
    /// (it subscribes and announces through the live session). Returns the
    /// arena id of the new cell.
    pub fn host(
        &mut self,
        sim: &mut Sim,
        model: Model,
        program: Box<dyn DigiProgram>,
        rng: Prng,
        log: TraceLog,
        scene_logic_enabled: bool,
    ) -> DigiId {
        let mut cell = DigiCell::new(model, program, rng, log, scene_logic_enabled);
        let name = cell.name().to_string();
        let [intent_topic, set_topic] = cell.command_topics();
        self.conn.subscribe(
            sim,
            &[(&intent_topic, QoS::AtLeastOnce), (&set_topic, QoS::AtLeastOnce)],
        );
        let mut out = Outbox::new();
        cell.start(sim.now(), &mut out);
        self.flush(sim, out);
        let interval = cell.interval_ms();
        let id = self.arena.insert(cell);
        self.ids.insert(name, id);
        self.join_tick_group(sim, id, interval);
        id
    }

    /// Remove a hosted digi. Its slab slot returns to the free list; any
    /// [`DigiId`] for it goes stale.
    pub fn evict(&mut self, sim: &mut Sim, name: &str) -> bool {
        let Some(id) = self.ids.remove(name) else {
            return false;
        };
        let Some(cell) = self.arena.remove(id) else {
            return false;
        };
        // The cell's tick-group entry goes stale with the id; it is
        // skipped and compacted at the group's next firing.
        let [intent_topic, set_topic] = cell.command_topics();
        self.conn.unsubscribe(sim, &[&intent_topic, &set_topic]);
        true
    }

    /// Attach `child` to the hosted scene `parent` (both may live in this
    /// pool or elsewhere; only the parent must be hosted here).
    pub fn attach_child(&mut self, sim: &mut Sim, parent: &str, child: &str, kind: &str) -> bool {
        let Some(&id) = self.ids.get(parent) else {
            return false;
        };
        let Some(cell) = self.arena.get_mut(id) else {
            return false;
        };
        let topic = cell.attach_child(sim.now(), child, kind);
        self.conn.subscribe(sim, &[(&topic, QoS::AtMostOnce)]);
        true
    }

    fn flush(&mut self, sim: &mut Sim, out: Outbox) {
        for (topic, payload, retain) in out.messages {
            self.conn.publish(sim, &topic, payload, QoS::AtMostOnce, retain);
        }
    }

    /// Add a cell to the tick group for `interval_ms`, arming the group's
    /// single timer if it isn't in flight. A cell joining an armed
    /// group adopts the group's phase.
    fn join_tick_group(&mut self, sim: &mut Sim, id: DigiId, interval_ms: u64) {
        let group = self.tick_groups.entry(interval_ms).or_default();
        group.members.push(id);
        if !group.armed {
            group.armed = true;
            sim.set_timer(
                self.addr,
                SimDuration::from_millis(interval_ms),
                TICK_TOKEN_TAG | interval_ms,
            );
        }
    }

    /// Re-establish a lost MQTT session: connect, re-subscribe every
    /// hosted cell's command topics and attached children's model topics
    /// in name order, and republish every model — the broker's retained
    /// copies may predate whatever happened while the session was down.
    fn reconnect(&mut self, sim: &mut Sim) {
        self.conn.connect(sim, None);
        let now = sim.now();
        let ids: Vec<DigiId> = self.ids.values().copied().collect();
        for id in ids {
            let Some(cell) = self.arena.get_mut(id) else {
                continue;
            };
            let [intent_topic, set_topic] = cell.command_topics();
            self.conn.subscribe(
                sim,
                &[(&intent_topic, QoS::AtLeastOnce), (&set_topic, QoS::AtLeastOnce)],
            );
            for child in &cell.model().meta.attach {
                self.conn.subscribe(sim, &[(&topics::model(child), QoS::AtMostOnce)]);
            }
            let mut out = Outbox::new();
            cell.republish_model(now, &mut out);
            self.flush(sim, out);
        }
    }

    /// A tick group's timer fired: reconnect first if the session was
    /// lost, then run every live member's loop handler in host order (a
    /// dense scan of the arena), compact stale ids, migrate cells whose
    /// programs changed their interval, and re-arm once.
    fn run_tick_group(&mut self, sim: &mut Sim, token: TimerToken) {
        if self.reconnect_pending {
            self.reconnect_pending = false;
            self.reconnect(sim);
        }
        let interval_ms = token & !TICK_TOKEN_TAG;
        let Some(group) = self.tick_groups.get_mut(&interval_ms) else {
            return;
        };
        self.stats.timer_wakeups += 1;
        let mut members = std::mem::take(&mut group.members);
        let now = sim.now();
        let mut survivors = Vec::with_capacity(members.len());
        let mut moved: Vec<(DigiId, u64)> = Vec::new();
        for id in members.drain(..) {
            let Some(cell) = self.arena.get_mut(id) else {
                continue; // stale: evicted (and possibly recycled) since
            };
            let mut out = Outbox::new();
            cell.tick(now, &mut out);
            let new_interval = cell.interval_ms();
            self.stats.ticks_dispatched += 1;
            self.flush(sim, out);
            if new_interval == interval_ms {
                survivors.push(id);
            } else {
                moved.push((id, new_interval));
            }
        }
        let group = self.tick_groups.get_mut(&interval_ms).expect("group present above");
        // Merge defensively with anything hosted while we were running.
        survivors.append(&mut group.members);
        group.members = survivors;
        if group.members.is_empty() {
            group.armed = false;
        } else {
            sim.set_timer(self.addr, SimDuration::from_millis(interval_ms), token);
        }
        for (id, interval) in moved {
            self.join_tick_group(sim, id, interval);
        }
    }

    fn handle_mqtt_message(&mut self, sim: &mut Sim, topic: &str, payload: &[u8]) {
        self.stats.messages_in += 1;
        let now = sim.now();
        let Some(digi) = topics::digi_of(topic) else {
            return;
        };
        let digi = digi.to_string();
        match topics::channel_of(topic) {
            Some("intent") => {
                if let Some(cell) = self.ids.get(&digi).and_then(|&id| self.arena.get_mut(id)) {
                    cell.log_message_in(now, topic, payload);
                    let updates = DigiCell::parse_intents(payload);
                    let mut out = Outbox::new();
                    // NOTE: pooled digis apply intents immediately; per-digi
                    // actuation delay is a dedicated-service feature.
                    cell.apply_intents(now, updates, &mut out);
                    self.flush(sim, out);
                }
            }
            Some("set") => {
                if let Some(cell) = self.ids.get(&digi).and_then(|&id| self.arena.get_mut(id)) {
                    cell.log_message_in(now, topic, payload);
                    let mut out = Outbox::new();
                    cell.handle_set(now, payload, &mut out);
                    self.flush(sim, out);
                }
            }
            Some("model") => {
                // fan the child model to every hosted scene mirroring it,
                // in name order (the same order the old map iteration had)
                let parents: Vec<DigiId> = self
                    .ids
                    .values()
                    .copied()
                    .filter(|&id| self.arena.get(id).is_some_and(|c| c.has_child(&digi)))
                    .collect();
                for id in parents {
                    if let Some(cell) = self.arena.get_mut(id) {
                        let mut out = Outbox::new();
                        cell.observe_child(now, &digi, payload, &mut out);
                        self.flush(sim, out);
                    }
                }
            }
            _ => {}
        }
    }

    fn handle_http(&mut self, sim: &mut Sim, peer: Addr, payload: &Bytes) {
        self.stats.rest_requests += 1;
        let response = match Request::decode(payload) {
            Ok(req) => {
                // pooled routing: /digi/<name>/...
                let target = {
                    let segs = req.path_segments();
                    match segs.as_slice() {
                        ["digi", name, ..] => Some(name.to_string()),
                        _ => None,
                    }
                };
                let target_id = target.and_then(|t| self.ids.get(&t).copied());
                match target_id.and_then(|id| self.arena.get_mut(id)) {
                    Some(cell) => {
                        let mut out = Outbox::new();
                        let resp = cell.route_http(sim.now(), &req, &mut out);
                        self.flush(sim, out);
                        resp
                    }
                    None => Response::not_found("no such digi in this pool"),
                }
            }
            Err(e) => Response::bad_request(&e.to_string()),
        };
        let bytes = response.encode();
        if self.service_overhead == SimDuration::ZERO {
            self.http.send(sim, peer, bytes);
        } else {
            let load = sim.node_load(self.addr.node) as f64;
            let factor = (1.0 + load / 64.0) * self.overhead_rng.range_f64(0.85, 1.25);
            let delay = SimDuration::from_nanos(
                (self.service_overhead.as_nanos() as f64 * factor) as u64,
            );
            let token = RESPONSE_TOKEN_TAG | self.next_response_token;
            self.next_response_token += 1;
            self.pending_responses.insert(token, (peer, bytes));
            sim.set_timer(self.addr, delay, token);
        }
    }

    fn ingest(&mut self, sim: &mut Sim, dg: Datagram) {
        if dg.src == self.conn.broker() {
            self.conn.on_datagram(sim, dg);
        } else {
            self.http.on_datagram(sim, dg);
        }
    }

    fn pump(&mut self, sim: &mut Sim) {
        while let Some(ev) = self.conn.poll() {
            match ev {
                ClientEvent::Message { topic, payload, .. } => {
                    self.handle_mqtt_message(sim, &topic, &payload);
                }
                ClientEvent::BrokerLost => self.reconnect_pending = true,
                _ => {}
            }
        }
        while let Some(ev) = self.http.poll() {
            match ev {
                TransportEvent::Delivered { peer, payload } => {
                    self.handle_http(sim, peer, &payload)
                }
                TransportEvent::PeerFailed { .. } => {}
            }
        }
    }
}

impl Service for DigiPool {
    fn on_start(&mut self, sim: &mut Sim) {
        self.conn.connect(sim, None);
    }

    fn on_datagram(&mut self, sim: &mut Sim, dg: Datagram) {
        self.ingest(sim, dg);
        self.pump(sim);
    }

    fn on_datagram_batch(&mut self, sim: &mut Sim, batch: &[Datagram]) {
        // Ingest the whole same-instant run, then pump once: one pass over
        // the session/endpoint queues per batch instead of per datagram.
        self.stats.batched_deliveries += 1;
        for dg in batch {
            self.ingest(sim, dg.clone());
        }
        self.pump(sim);
    }

    fn on_timer(&mut self, sim: &mut Sim, token: TimerToken) {
        if self.conn.on_timer(sim, token) {
            self.pump(sim);
            return;
        }
        if self.http.on_timer(sim, token) {
            self.pump(sim);
            return;
        }
        if token & RESPONSE_TOKEN_TAG != 0 {
            if let Some((peer, bytes)) = self.pending_responses.remove(&token) {
                self.http.send(sim, peer, bytes);
            }
        } else if token & TICK_TOKEN_TAG != 0 {
            self.run_tick_group(sim, token);
        }
    }
}

#[cfg(test)]
mod arena_tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a: Arena<String> = Arena::new();
        let x = a.insert("x".into());
        let y = a.insert("y".into());
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(x).map(String::as_str), Some("x"));
        assert_eq!(a.get(y).map(String::as_str), Some("y"));
        assert_eq!(a.remove(x), Some("x".into()));
        assert_eq!(a.len(), 1);
        assert!(a.get(x).is_none());
        assert_eq!(a.remove(x), None, "double remove is stale");
    }

    #[test]
    fn stale_id_never_reaches_recycled_slot() {
        let mut a: Arena<u32> = Arena::new();
        let first = a.insert(1);
        a.remove(first);
        let second = a.insert(2);
        // LIFO recycling: same slot, new generation.
        assert_eq!(second.slot(), first.slot());
        assert_ne!(second.generation(), first.generation());
        assert!(!a.contains(first));
        assert!(a.get(first).is_none());
        assert!(a.get_mut(first).is_none());
        assert_eq!(a.remove(first), None);
        assert_eq!(a.get(second), Some(&2));
    }

    #[test]
    fn iter_walks_slots_in_order() {
        let mut a: Arena<u32> = Arena::new();
        let ids: Vec<DigiId> = (0..5).map(|i| a.insert(i)).collect();
        a.remove(ids[2]);
        let seen: Vec<(u32, u32)> = a.iter().map(|(id, &v)| (id.slot(), v)).collect();
        assert_eq!(seen, vec![(0, 0), (1, 1), (3, 3), (4, 4)]);
    }

    #[test]
    fn slabs_grow_without_moving_slots() {
        let mut a: Arena<usize> = Arena::new();
        let ids: Vec<DigiId> = (0..SLAB_CAP + 10).map(|i| a.insert(i)).collect();
        assert_eq!(a.capacity(), SLAB_CAP + 10);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(a.get(*id), Some(&i), "slot {} moved", id.slot());
        }
        assert_eq!(ids[SLAB_CAP].slot() as usize, SLAB_CAP, "second slab starts at SLAB_CAP");
    }

    /// Tiny deterministic PRNG for the chaos-style interleaving (the
    /// seeded property below digs deeper).
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    /// Reference-model check: interleaved spawn/kill/restart against a
    /// plain map keyed by raw id. No stale id may ever dereference, and a
    /// "restart" (kill + respawn) must land in the most recently freed
    /// slab slot (LIFO), exactly where checkpoint restore expects it.
    fn spawn_kill_restart_round(seed: u64, steps: u32) {
        let mut a: Arena<u64> = Arena::new();
        let mut rng = Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1));
        let mut live: Vec<(DigiId, u64)> = Vec::new();
        let mut dead: Vec<DigiId> = Vec::new();
        let mut stamp = 0u64;
        for _ in 0..steps {
            match rng.next() % 4 {
                0 | 1 => {
                    // spawn
                    stamp += 1;
                    let expected_slot = a
                        .free
                        .last()
                        .copied()
                        .unwrap_or(a.next_slot);
                    let id = a.insert(stamp);
                    assert_eq!(id.slot(), expected_slot, "LIFO slot reuse violated");
                    live.push((id, stamp));
                }
                2 if !live.is_empty() => {
                    // kill
                    let i = (rng.next() as usize) % live.len();
                    let (id, v) = live.swap_remove(i);
                    assert_eq!(a.remove(id), Some(v));
                    dead.push(id);
                }
                _ if !live.is_empty() => {
                    // restart: kill then respawn; must land in the slot
                    // just freed (how checkpoint restore finds its row)
                    let i = (rng.next() as usize) % live.len();
                    let (id, v) = live.swap_remove(i);
                    assert_eq!(a.remove(id), Some(v));
                    stamp += 1;
                    let re = a.insert(stamp);
                    assert_eq!(re.slot(), id.slot(), "restart must reuse the freed slot");
                    assert_ne!(re.generation(), id.generation());
                    dead.push(id);
                    live.push((re, stamp));
                }
                _ => {}
            }
            // Invariants after every step: every live id resolves to its
            // value, every dead id is stale.
            for &(id, v) in &live {
                assert_eq!(a.get(id), Some(&v), "live id failed to resolve");
            }
            for &id in &dead {
                assert!(a.get(id).is_none(), "stale id dereferenced");
            }
            assert_eq!(a.len(), live.len());
        }
    }

    #[test]
    fn randomized_spawn_kill_restart_interleavings() {
        for seed in 0..8 {
            spawn_kill_restart_round(seed, 600);
        }
    }

    #[test]
    fn arena_recycling_holds_under_any_interleaving() {
        digibox_net::prop::check("arena_recycling_holds_under_any_interleaving", 256, |g| {
            let seed = g.u64();
            spawn_kill_restart_round(seed, g.range(1..400) as u32);
        });
    }
}
