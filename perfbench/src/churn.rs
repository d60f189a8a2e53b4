//! `churn`: a seed-drawn mix of `TenancyStorm::run` calls on one recycled
//! `paper_default()` machine.
//!
//! A pass is one block of ten storms, one of each class: Deny, Queue and
//! ShrinkNeighbours at a calm and a storm load, and audited (IRONHIDE
//! discipline) Queue storms under each of the four fault kinds. The seed
//! draws each storm's tenant count, arrival seed and fault rate. Tenant
//! counts are drawn from a wide range so storm times spread evenly, and no
//! percentile sits on a gap between two classes of storms.
//!
//! Reconfiguration (purge, rehome, scrub), admission and fault recovery do
//! the work; the access layer runs cold first touches through the scalar
//! `Machine::access`.

use std::sync::Arc;

use ironhide::ironhide_sim::machine::Machine;
use ironhide::prelude::*;

use crate::stats::{fnv1a, median, splitmix, thread_cpu_ns};
use crate::trace::Recorder;
use crate::{Count, Pass, Work, Workload, WorkloadKind};

/// Tenant counts are drawn uniformly from this range.
const TENANTS: (u64, u64) = (60, 180);
/// Fault rates, per mille of arrivals, are drawn uniformly from this range.
const FAULT_RATE: (u64, u64) = (50, 500);
/// Cores the insecure host keeps, as in the repository's tenancy benches.
const HOST_RESERVE: usize = 8;
/// Warm-up blocks draw from this seed rather than the workload seed, so
/// set-up does the same work, and reports the same identity checksum, at
/// every workload seed.
const WARMUP_SEED: u64 = 0xC4A2_0001;
/// The first warm-up block's identity checksum while the model is unchanged.
const WARMUP_CHECKSUM: u64 = 17809512546708587300;

/// One storm class of the mix.
#[derive(Debug, Clone, Copy)]
struct StormClass {
    label: &'static str,
    policy: AdmissionPolicy,
    mean_interarrival_cycles: u64,
    fault: Option<FaultKind>,
}

const fn plain(label: &'static str, policy: AdmissionPolicy, gap: u64) -> StormClass {
    StormClass { label, policy, mean_interarrival_cycles: gap, fault: None }
}

const fn faulted(label: &'static str, kind: FaultKind) -> StormClass {
    StormClass {
        label,
        policy: AdmissionPolicy::Queue,
        mean_interarrival_cycles: 30_000,
        fault: Some(kind),
    }
}

/// The block: calm loads mostly drain between arrivals, storm loads overlap
/// heavily, and the fault storms use the repository's fault-campaign load.
const CLASSES: [StormClass; 10] = [
    plain("deny-calm", AdmissionPolicy::Deny, 60_000),
    plain("queue-calm", AdmissionPolicy::Queue, 60_000),
    plain("shrink-calm", AdmissionPolicy::ShrinkNeighbours, 60_000),
    plain("deny-storm", AdmissionPolicy::Deny, 12_000),
    plain("queue-storm", AdmissionPolicy::Queue, 12_000),
    plain("shrink-storm", AdmissionPolicy::ShrinkNeighbours, 12_000),
    faulted("tile-failure", FaultKind::TileFailure),
    faulted("link-degradation", FaultKind::LinkDegradation),
    faulted("controller-stall", FaultKind::ControllerStall),
    faulted("dropped-scrub", FaultKind::DroppedScrub),
];

/// One storm's seed-drawn inputs.
#[derive(Debug, Clone, Copy)]
struct StormInputs {
    tenants: usize,
    storm_seed: u64,
    schedule_seed: u64,
    rate_per_mille: u32,
}

fn draw(range: (u64, u64), state: &mut u64) -> u64 {
    range.0 + splitmix(state) % (range.1 - range.0 + 1)
}

/// The inputs of block `block` at workload seed `seed`.
fn block_inputs(seed: u64, block: u64) -> [StormInputs; CLASSES.len()] {
    let mut state = fnv1a([seed, block]);
    std::array::from_fn(|_| StormInputs {
        tenants: draw(TENANTS, &mut state) as usize,
        storm_seed: splitmix(&mut state),
        schedule_seed: splitmix(&mut state),
        rate_per_mille: draw(FAULT_RATE, &mut state) as u32,
    })
}

/// The churn workload: one machine recycled by every storm.
#[derive(Debug)]
pub struct Churn {
    seed: u64,
    machine: Machine,
    profiles: Vec<TenantProfile>,
    /// Time the benchmark's one `Machine::new` took, in milliseconds.
    pub machine_new_ms: f64,
}

impl Churn {
    /// Builds the machine every storm recycles.
    pub fn new(seed: u64) -> Self {
        let start = thread_cpu_ns();
        let machine = Machine::new(MachineConfig::paper_default());
        let machine_new_ms = (thread_cpu_ns() - start) as f64 / 1e6;
        Churn { seed, machine, profiles: tenant_profiles(&AppId::ALL), machine_new_ms }
    }

    fn storm(
        &mut self,
        class: StormClass,
        inputs: StormInputs,
        rec: &Arc<Recorder>,
    ) -> Result<StormReport, String> {
        let _cell = rec.cell(class.label);
        let config = StormConfig {
            tenants: inputs.tenants,
            mean_interarrival_cycles: class.mean_interarrival_cycles,
            mean_service_scale: 1,
            host_reserve_cores: HOST_RESERVE,
            profiles: self.profiles.clone(),
        };
        let result = match class.fault {
            None => rec.within("storm", || {
                TenancyStorm::new(&config, class.policy).run(&mut self.machine, inputs.storm_seed)
            }),
            Some(kind) => {
                let cores = self.machine.config().cores();
                let schedule = rec.within("draw", || {
                    FaultSchedule::draw(
                        FaultConfig::for_kind(kind, inputs.rate_per_mille),
                        inputs.schedule_seed,
                        inputs.tenants as u64,
                        cores,
                    )
                });
                rec.within("storm", || {
                    TenancyStorm::with_faults(&config, class.policy, &schedule, FaultArch::Ironhide)
                        .run(&mut self.machine, inputs.storm_seed)
                })
            }
        };
        result.map_err(|e| e.to_string())
    }
}

/// The checks every storm must pass: tenants are conserved, every arrival
/// is attested, and the audited discipline leaves no dropped scrub
/// unrecovered.
fn check(report: &StormReport) -> Option<String> {
    if !report.conserves_tenants() {
        return Some("tenants not conserved".to_string());
    }
    if report.attested != report.arrived {
        return Some(format!("{} attested of {} arrived", report.attested, report.arrived));
    }
    if report.dropped_scrubs_unrecovered > 0 {
        return Some(format!("{} dropped scrubs unrecovered", report.dropped_scrubs_unrecovered));
    }
    None
}

impl Workload for Churn {
    fn passes_repeat(&self) -> bool {
        false
    }

    fn run_pass(&mut self, pass: u64, rec: &Arc<Recorder>) -> Pass {
        let warmup = pass < WorkloadKind::Churn.warmup_passes();
        let inputs = block_inputs(if warmup { WARMUP_SEED } else { self.seed }, pass);
        let mut failures = Vec::new();
        let mut reports = Vec::new();
        for (class, inputs) in CLASSES.into_iter().zip(inputs) {
            match self.storm(class, inputs, rec) {
                Ok(report) => {
                    if let Some(why) = check(&report) {
                        failures.push(format!("{} storm: {why}", class.label));
                    }
                    reports.push(report);
                }
                Err(e) => failures.push(format!("{} storm: {e}", class.label)),
            }
        }
        let sum = |f: fn(&StormReport) -> u64| reports.iter().map(f).sum::<u64>();
        let base = format!("sum over the block's {} storms", reports.len());
        let count = |name, f| Count::new(name, sum(f) as f64, base.clone());
        let p99s: Vec<f64> =
            reports.iter().map(|r| r.slo.completion_percentile(99, 100) as f64).collect();
        let json = render(&reports);
        let checksum =
            fnv1a(reports.iter().flat_map(|r| [r.final_cycle, r.slo.checksum(), r.pages_rehomed]));
        Pass {
            cells: CLASSES.len(),
            failures,
            work: Work {
                reconfigurations: sum(|r| r.reconfigurations),
                arrivals: sum(|r| r.arrived),
                ..Work::default()
            },
            counts: vec![
                count("tenancy.arrivals", |r| r.arrived),
                count("tenancy.reconfigurations", |r| r.reconfigurations),
                count("tenancy.pages_rehomed", |r| r.pages_rehomed),
                count("faults.quarantined_tiles", |r| r.quarantined_tiles),
                count("faults.backoff_retries", |r| r.backoff_retries),
                count("faults.dropped_scrubs_recovered", |r| r.dropped_scrubs_recovered),
                Count::new(
                    "tenancy.completion_p99_cycles",
                    if p99s.is_empty() { 0.0 } else { median(&p99s) },
                    format!("median of the block's {} per-storm p99s", p99s.len()),
                ),
            ],
            summary: vec![
                format!(
                    "identity checksum: FNV-1a over each storm's final cycle, SLO checksum and \
                     pages re-homed = {checksum} ({WARMUP_CHECKSUM} for the first warm-up block \
                     when the model is unchanged)"
                ),
                format!(
                    "storms: {} arrivals, {} reconfigurations; the model is unvalidated against \
                     a measured system",
                    sum(|r| r.arrived),
                    sum(|r| r.reconfigurations)
                ),
            ],
            json,
        }
    }
}

/// The block's reports as JSON lines, for byte comparisons.
fn render(reports: &[StormReport]) -> String {
    reports
        .iter()
        .map(|r| {
            format!(
                "{{\"arrived\":{},\"admitted\":{},\"denied\":{},\"queued\":{},\"reconfigurations\":{},\
                 \"pages_rehomed\":{},\"final_cycle\":{},\"failed_recovered\":{},\"faults\":{},\
                 \"slo\":{}}}\n",
                r.arrived,
                r.admitted,
                r.denied,
                r.queued,
                r.reconfigurations,
                r.pages_rehomed,
                r.final_cycle,
                r.failed_recovered,
                r.faults_injected,
                r.slo.checksum()
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_inputs_are_seed_determined_and_in_range() {
        assert_eq!(format!("{:?}", block_inputs(3, 7)), format!("{:?}", block_inputs(3, 7)),);
        assert_ne!(format!("{:?}", block_inputs(3, 7)), format!("{:?}", block_inputs(4, 7)));
        for inputs in block_inputs(11, 0) {
            assert!((TENANTS.0..=TENANTS.1).contains(&(inputs.tenants as u64)));
            assert!((FAULT_RATE.0..=FAULT_RATE.1).contains(&(inputs.rate_per_mille as u64)));
        }
    }
}
