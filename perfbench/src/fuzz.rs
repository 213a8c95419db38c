//! `fuzz`: many short cold runs. Programs are generated from the seed
//! the way `bj-fuzz` draws them (call depth 2), then each is checked by
//! `check_fault_free`: the interpreter plus all four modes, with the
//! commit log replayed in lockstep.

use blackjack::faults::FaultPlan;
use blackjack::isa::Program;
use blackjack::sim::{Core, CoreConfig, Mode};
use blackjack_fuzz::oracle::golden_memory;
use blackjack_fuzz::{check_fault_free, generate, GenConfig};
use blackjack_rng::Rng;

use crate::trace::{Spans, Tracer};
use crate::{Layers, Output, Workload};

/// Programs per repetition: enough that the seed-to-seed spread of their
/// summed cost stays within a few percent.
const PROGRAMS: usize = 256;
const CALL_DEPTH: usize = 2;

pub struct Fuzz;

pub struct Inputs {
    seed: u64,
    /// `(generator seed, segments)` per program, as `bj-fuzz` draws them.
    draws: Vec<(u64, usize)>,
    programs: Vec<Program>,
}

fn draws(seed: u64) -> Vec<(u64, usize)> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..PROGRAMS)
        .map(|_| {
            let sub_seed = rng.next_u64();
            (sub_seed, rng.random_range(4usize..=16))
        })
        .collect()
}

fn gen(&(sub_seed, segments): &(u64, usize)) -> Program {
    generate(
        sub_seed,
        GenConfig {
            segments,
            call_depth: CALL_DEPTH,
        },
    )
}

/// The fuzz verdict tally of one repetition.
#[derive(Default)]
struct Tally {
    insts: u64,
    cycles: u64,
    failures: u64,
}

impl Tally {
    fn check(&mut self, prog: &Program) {
        match check_fault_free(prog) {
            Ok(s) => {
                self.insts += s.icount;
                self.cycles += s.cycles;
            }
            Err(e) => {
                eprintln!("{}: {e}", prog.name);
                self.failures += 1;
            }
        }
    }

    fn output(&self, seed: u64) -> Output {
        Output {
            lines: vec![format!(
                "seed {seed} programs={PROGRAMS} insts={} cycles={} failures={}",
                self.insts, self.cycles, self.failures
            )],
            ops: PROGRAMS as u64,
            op_failures: self.failures,
            sim_cycles: self.cycles,
            model: Vec::new(),
            partial: false,
        }
    }
}

impl Workload for Fuzz {
    type Inputs = Inputs;
    const NAME: &'static str = "fuzz";

    fn setup(seed: u64) -> Inputs {
        let draws = draws(seed);
        let programs = draws.iter().map(gen).collect();
        Inputs {
            seed,
            draws,
            programs,
        }
    }

    fn run(inputs: &Inputs) -> Output {
        let mut t = Tally::default();
        for prog in &inputs.programs {
            t.check(prog);
        }
        t.output(inputs.seed)
    }

    /// Per program: regenerates it (which must give the same program),
    /// times a golden interpreter run and the four cores' construction
    /// beside the check, then the check itself.
    fn run_traced(inputs: &Inputs, tracer: &Tracer, root: u32) -> (Output, Layers) {
        let mut t = Tally::default();
        let mut regenerated_differ = 0u64;
        for (draw, prog) in inputs.draws.iter().zip(&inputs.programs) {
            tracer.span("program", Some(root), |p| {
                let again = tracer.span("fuzz::generate", Some(p), |_| gen(draw));
                if again.text() != prog.text() || again.data() != prog.data() {
                    regenerated_differ += 1;
                }
                tracer.span("golden_memory", Some(p), |_| golden_memory(prog));
                for mode in Mode::ALL {
                    tracer.span("Core::new", Some(p), |_| {
                        Core::new(CoreConfig::with_mode(mode), prog, FaultPlan::new())
                    });
                }
                tracer.span("check_fault_free", Some(p), |_| t.check(prog));
            });
        }
        let mut out = t.output(inputs.seed);
        out.op_failures += regenerated_differ;
        let layers = Layers::from([
            ("fuzz.programs", PROGRAMS as f64),
            ("isa.golden_insts", t.insts as f64),
        ]);
        (out, layers)
    }

    fn span_layers(spans: &Spans, layers: &mut Layers) {
        layers.insert("fuzz.gen_s", spans.total("fuzz::generate"));
        layers.insert("fuzz.diff_s", spans.total("check_fault_free"));
        layers.insert("isa.golden_s", spans.total("golden_memory"));
        layers.insert("sim.new_s", spans.total("Core::new"));
    }

    /// The library keeps no fuzz counters; the traced tally is checked
    /// against the untraced one and the reference instead.
    fn cross_check(_inputs: &Inputs, _layers: &mut Layers) -> (u64, Vec<String>) {
        (0, Vec::new())
    }
}
