//! Building the system under test: a simulated network, capsules, the
//! relocation service (as `World` wires it), and the benchmark servant.

use crate::trace::{ClientProbe, ServerProbe, Stage, TimedServant, TimedTransport};
use odp_core::layers::AccessLayer;
use odp_core::{
    CallCtx, Capsule, ClientBinding, ClientLayer, ExportConfig, Outcome, RelocationServant,
    Servant, ServerLayer, TransparencyPolicy,
};
use odp_net::{LinkConfig, SimNet, SimNetConfig, Transport};
use odp_types::signature::{InterfaceTypeBuilder, OutcomeSig};
use odp_types::{InterfaceType, NodeId, TypeSpec};
use odp_wire::{InterfaceRef, Value};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workers of a capsule built with `Capsule::new`.
const DEFAULT_WORKERS: usize = 4;

/// A perfect in-process network, the system capsule hosting the relocator
/// and `n` application capsules.
pub struct System {
    pub net: SimNet,
    pub capsules: Vec<Arc<Capsule>>,
    /// The system capsule; kept so it lives as long as the application
    /// capsules, and last in `all()`.
    system: Arc<Capsule>,
}

impl System {
    /// Builds the system: the first application capsule (the server) has
    /// `server_workers` workers and every other capsule the default 4. With
    /// `timed_transport` every capsule sends through the timing decorator.
    pub fn build(
        seed: u64,
        app_capsules: usize,
        server_workers: usize,
        timed_transport: bool,
    ) -> Result<System, String> {
        let net = SimNet::new(SimNetConfig {
            seed,
            default_link: LinkConfig::default(),
        });
        let transport: Arc<dyn Transport> = if timed_transport {
            Arc::new(TimedTransport(net.clone()))
        } else {
            Arc::new(net.clone())
        };
        let capsule = |node: u64, workers: usize| {
            Capsule::with_workers(Arc::clone(&transport), NodeId(node), workers)
                .map_err(|e| format!("capsule {node}: {e}"))
        };
        let system = capsule(1, DEFAULT_WORKERS)?;
        let relocator = system.export(Arc::new(RelocationServant::new()));
        system.set_relocator(relocator.clone());
        let mut capsules = Vec::with_capacity(app_capsules);
        for i in 0..app_capsules {
            let workers = if i == 0 {
                server_workers
            } else {
                DEFAULT_WORKERS
            };
            let c = capsule(2 + i as u64, workers)?;
            c.set_relocator(relocator.clone());
            capsules.push(c);
        }
        Ok(System {
            net,
            capsules,
            system,
        })
    }

    /// Every capsule, application capsules first.
    pub fn all(&self) -> Vec<Arc<Capsule>> {
        let mut all = self.capsules.clone();
        all.push(Arc::clone(&self.system));
        all
    }
}

/// The benchmark servant: a counter, an echo, and an ingest sink.
///
/// * `add(Int) -> Int` adds to a running total and returns it;
/// * `echo(Bytes) -> Bytes` returns its argument;
/// * `get(Int) -> Int` returns how many `put`s have executed;
/// * `put(Int key, Int rid)` is an announcement that counts one ingest.
///
/// `get` and `put` take `service` of wall time, a fixed service cost that
/// makes an admission-controlled export's capacity a known constant. The
/// servant waits it out yielding its CPU rather than sleeping: sleeping
/// servants make the CPUs halt and wake thousands of times a second, and on
/// a virtual machine the time that costs varies from run to run.
pub struct Store {
    pub total: AtomicI64,
    pub ingested: Arc<AtomicU64>,
    service: Duration,
}

impl Store {
    pub fn new(service: Duration) -> Arc<Store> {
        Arc::new(Store {
            total: AtomicI64::new(0),
            ingested: Arc::new(AtomicU64::new(0)),
            service,
        })
    }

    pub fn ingested(&self) -> u64 {
        self.ingested.load(Ordering::SeqCst)
    }
}

fn store_type() -> InterfaceType {
    InterfaceTypeBuilder::new()
        .interrogation(
            "add",
            vec![TypeSpec::Int],
            vec![OutcomeSig::ok(vec![TypeSpec::Int])],
        )
        .interrogation(
            "echo",
            vec![TypeSpec::Bytes],
            vec![OutcomeSig::ok(vec![TypeSpec::Bytes])],
        )
        .interrogation(
            "get",
            vec![TypeSpec::Int],
            vec![OutcomeSig::ok(vec![TypeSpec::Int])],
        )
        .announcement("put", vec![TypeSpec::Int, TypeSpec::Int])
        .build()
}

impl Servant for Store {
    fn interface_type(&self) -> InterfaceType {
        store_type()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, _ctx: &CallCtx) -> Outcome {
        match (op, args.first()) {
            ("add", Some(Value::Int(n))) => Outcome::ok(vec![Value::Int(
                self.total.fetch_add(*n, Ordering::SeqCst) + n,
            )]),
            ("echo", Some(Value::Bytes(_))) => Outcome::ok(args),
            ("get", Some(Value::Int(_))) => {
                spin_for(self.service);
                Outcome::ok(vec![Value::Int(self.ingested() as i64)])
            }
            ("put", Some(Value::Int(_))) => {
                spin_for(self.service);
                self.ingested.fetch_add(1, Ordering::SeqCst);
                Outcome::ok(vec![])
            }
            _ => Outcome::fail(format!("bad call {op}")),
        }
    }
}

/// Waits `wait` without leaving the CPU idle, giving way to every other
/// runnable thread meanwhile.
fn spin_for(wait: Duration) {
    let until = Instant::now() + wait;
    while Instant::now() < until {
        std::thread::yield_now();
    }
}

/// Exports `store` on `capsule` with `admission` (if any) as its only
/// server layer; with `probed`, the export wraps the servant in a timer and
/// puts server probes outside and inside the admission layer.
pub fn export(
    capsule: &Arc<Capsule>,
    store: &Arc<Store>,
    admission: Option<Arc<dyn ServerLayer>>,
    probed: bool,
) -> InterfaceRef {
    let servant: Arc<dyn Servant> = Arc::clone(store) as Arc<dyn Servant>;
    if !probed {
        return capsule.export_with(
            servant,
            ExportConfig {
                layers: admission.into_iter().collect(),
                ..ExportConfig::default()
            },
        );
    }
    let mut layers: Vec<Arc<dyn ServerLayer>> = vec![Arc::new(ServerProbe(Stage::ServerOuter))];
    layers.extend(admission);
    layers.push(Arc::new(ServerProbe(Stage::ServerInner)));
    capsule.export_with(
        Arc::new(TimedServant(servant)),
        ExportConfig {
            layers,
            ..ExportConfig::default()
        },
    )
}

/// Binds like `Capsule::bind_with`; with `probed`, the stack gets a probe
/// layer first and another last, just above the access layer.
pub fn bind(
    capsule: &Arc<Capsule>,
    target: InterfaceRef,
    policy: &TransparencyPolicy,
    probed: bool,
) -> ClientBinding {
    if !probed {
        return capsule.bind_with(target, policy.clone());
    }
    let cell = Arc::new(RwLock::new(target));
    let mut layers: Vec<Arc<dyn ClientLayer>> = vec![Arc::new(ClientProbe(Stage::ClientOuter))];
    layers.extend(policy.build_layers(capsule, &cell));
    layers.push(Arc::new(ClientProbe(Stage::ClientInner)));
    ClientBinding::assemble(
        cell,
        layers,
        AccessLayer::new(capsule, policy.force_remote),
        policy.qos,
    )
}
