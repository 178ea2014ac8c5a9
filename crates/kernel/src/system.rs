//! The simulated system: one core plus kernel state.
//!
//! [`System`] is what the kernel-extension crates drive. It provides:
//!
//! * user-mode execution of straight-line code and loops, with timer
//!   interrupts delivered at the right cycle boundaries;
//! * the system-call protocol (user stub → kernel entry → handler →
//!   kernel exit → user stub) used by perfctr/perfmon syscalls;
//! * rounds of user compute plus a no-op system call, fast-forwarded
//!   between interrupts ([`System::run_syscall_loop`]) the way loops are;
//! * context switches that save/restore the PMU per thread (§2.3).

use counterlab_cpu::layout::CodePlacement;
use counterlab_cpu::machine::{LoopAnalysis, Machine, Privilege};
use counterlab_cpu::mix::{InstMix, MixBuilder};
use counterlab_cpu::timing;
use counterlab_cpu::uarch::Processor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{KernelConfig, Preemption, SkidModel, TimerCost};
use crate::interrupt::{IoSource, TimerSource};
use crate::syscall::SyscallConvention;
use crate::thread::{ThreadId, ThreadTable};
use crate::{KernelError, Result};

/// Kernel instructions of one bare context switch (2.6.22 `switch_to` plus
/// scheduler bookkeeping), excluding PMU save/restore work which the
/// kernel extensions add.
pub const CONTEXT_SWITCH_INSTRUCTIONS: u64 = 450;

/// One simulated machine running one simulated kernel.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct System {
    machine: Machine,
    timer: TimerSource,
    io: Option<IoSource>,
    rng: StdRng,
    skid: SkidModel,
    threads: ThreadTable,
    convention: SyscallConvention,
    /// The four convention mixes, cached once per boot: the syscall round
    /// trip is the measurement hot loop and the mixes are pure functions
    /// of `convention` (entry, kernel entry, kernel exit, exit).
    conv_mixes: [InstMix; 4],
    syscall_count: u64,
    preemption: Option<Preemption>,
    ticks_since_switch: u32,
    in_preemption: bool,
}

impl System {
    /// Boots a system: one core of `processor` under `config`. The boot
    /// leaves the CPU in user mode with `CR4.PCE` clear (extensions that
    /// want user-mode `RDPMC` must enable it, as perfctr does).
    pub fn new(processor: Processor, config: KernelConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let machine = Machine::new(processor);
        let cost = config
            .timer_cost
            .unwrap_or_else(|| TimerCost::default_for(processor));
        let timer = TimerSource::new(processor.uarch(), config.hz, cost, &mut rng);
        let io = config
            .io
            .map(|cfg| IoSource::new(processor.uarch(), cfg, &mut rng));
        let convention = SyscallConvention::default();
        let mut system = System {
            machine,
            timer,
            io,
            rng,
            skid: config.skid,
            threads: ThreadTable::new(),
            convention,
            conv_mixes: convention_mixes(&convention),
            syscall_count: 0,
            preemption: config.preemption,
            ticks_since_switch: 0,
            in_preemption: false,
        };
        system.machine.set_privilege(Privilege::User);
        system
    }

    /// Returns the system to the state a fresh [`System::new`] boot with
    /// `config` would produce, while keeping the machine's allocations.
    ///
    /// The measurement-session reuse path: within one experiment cell only
    /// the seed varies between repetitions, so instead of constructing a
    /// new system per run the harness boots once and reseeds. The
    /// per-field assignments mirror [`System::new`] exactly — including
    /// the RNG draw order (timer phase first, then the optional I/O
    /// source) — so a reseeded system is bit-identical to a fresh boot
    /// with the same configuration; the equivalence suite locks this in.
    pub fn reseed(&mut self, config: &KernelConfig) {
        self.machine.reset();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let processor = self.machine.processor();
        let cost = config
            .timer_cost
            .unwrap_or_else(|| TimerCost::default_for(processor));
        self.timer = TimerSource::new(processor.uarch(), config.hz, cost, &mut rng);
        self.io = config
            .io
            .map(|cfg| IoSource::new(processor.uarch(), cfg, &mut rng));
        self.rng = rng;
        self.skid = config.skid;
        self.threads.reset();
        // `convention` and its cached mixes are boot constants (no setter
        // exists); nothing to restore.
        self.syscall_count = 0;
        self.preemption = config.preemption;
        self.ticks_since_switch = 0;
        self.in_preemption = false;
        self.machine.set_privilege(Privilege::User);
    }

    /// The underlying machine (counters, cycle clock).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access. Intended for kernel-extension crates; going
    /// around the kernel with it in application code is the simulation
    /// equivalent of poking MSRs from a driver.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The thread table.
    pub fn threads(&self) -> &ThreadTable {
        &self.threads
    }

    /// The running thread.
    pub fn current_thread(&self) -> ThreadId {
        self.threads.current()
    }

    /// The syscall cost convention.
    pub fn convention(&self) -> SyscallConvention {
        self.convention
    }

    /// Timer ticks delivered since boot.
    pub fn ticks_delivered(&self) -> u64 {
        self.timer.ticks_delivered()
    }

    /// System calls performed since boot.
    pub fn syscall_count(&self) -> u64 {
        self.syscall_count
    }

    /// Adds per-tick kernel work on behalf of a loaded extension (perfctr's
    /// and perfmon's tick hooks cost different amounts — part of why their
    /// Figure 7 slopes differ).
    pub fn set_tick_extension_extra(&mut self, instructions: u64) {
        self.timer.set_extension_extra(instructions);
    }

    /// Runs a straight-line user-mode mix, then delivers any timer ticks
    /// that became due.
    pub fn run_user_mix(&mut self, mix: &InstMix) {
        debug_assert_eq!(self.machine.privilege(), Privilege::User);
        let delta = self.machine.execute_mix(mix, Privilege::User);
        let tid = self.threads.current();
        if let Some(t) = self.threads.get_mut(tid) {
            t.add_user_instructions(delta.instructions);
        }
        self.deliver_due_ticks();
    }

    /// Runs `iters` iterations of a user-mode loop placed at `placement`,
    /// delivering timer interrupts at the cycles where they fall — the
    /// mechanism behind the paper's §5 duration-dependent error.
    pub fn run_user_loop(&mut self, body: &InstMix, iters: u64, placement: CodePlacement) {
        debug_assert_eq!(self.machine.privilege(), Privilege::User);
        let analysis = self.machine.analyze_loop(body, placement);
        self.machine.commit_loop_warmup(&analysis, Privilege::User);
        let mut remaining = iters;
        let mut user_retired = 0u64;
        while remaining > 0 {
            let chunk = self.iters_until_event(&analysis, remaining);
            if chunk > 0 {
                let d = self
                    .machine
                    .execute_loop_iters(body, chunk, &analysis, Privilege::User);
                user_retired += d.instructions;
                remaining -= chunk;
            }
            let now = self.machine.cycle();
            if self.timer.due(now) {
                remaining = self.deliver_tick_in_loop(body, &analysis, remaining);
            } else if self.io.as_ref().is_some_and(|io| io.due(now)) {
                self.run_io_handler();
            } else if chunk == 0 {
                // No interrupt due yet but no full iteration fits: run one.
                let d = self
                    .machine
                    .execute_loop_iters(body, 1, &analysis, Privilege::User);
                user_retired += d.instructions;
                remaining -= 1;
            }
        }
        self.machine.commit_loop_exit(Privilege::User);
        let tid = self.threads.current();
        if let Some(t) = self.threads.get_mut(tid) {
            t.add_user_instructions(user_retired);
        }
        self.deliver_due_ticks();
    }

    /// Performs one system call: user stub → kernel entry → `pre` handler
    /// instructions → privileged work `f` → `post` handler instructions →
    /// kernel exit → user stub. Timer ticks are held off while in the
    /// kernel (interrupts disabled on the syscall path) and delivered after
    /// return to user mode.
    ///
    /// # Errors
    ///
    /// [`KernelError::AlreadyInKernel`] for nested calls; errors from `f`
    /// propagate.
    pub fn syscall<R>(
        &mut self,
        pre: &InstMix,
        f: impl FnOnce(&mut Machine) -> Result<R>,
        post: &InstMix,
    ) -> Result<R> {
        if self.machine.privilege() == Privilege::Kernel {
            return Err(KernelError::AlreadyInKernel);
        }
        self.syscall_count += 1;
        let (entry, exit) = syscall_mixes(&self.conv_mixes, pre, post);
        // The CPU is in kernel mode for the privileged work; each mix
        // counts at the privilege `syscall_mixes` gives it.
        self.machine.set_privilege(Privilege::Kernel);
        execute_in_turn(&mut self.machine, entry);
        let result = f(&mut self.machine);
        execute_in_turn(&mut self.machine, exit);
        self.machine.set_privilege(Privilege::User);
        self.deliver_due_ticks();
        result
    }

    /// Runs `iters` rounds of user-mode `compute` followed by a system call
    /// with a **no-op** handler (`pre` and `post` around nothing) — the
    /// same result, bit for bit, as `iters` rounds of
    /// [`System::run_user_mix`]`(compute)` then
    /// [`System::syscall`]`(pre, |_| Ok(()), post)`.
    ///
    /// Like [`System::run_user_loop`], it fast-forwards: the whole rounds
    /// that end strictly before the next timer or I/O interrupt are
    /// committed in one step per mix, and the round an interrupt falls in
    /// runs through the per-call path, so skid, handler jitter and
    /// preemption behave exactly as they do there.
    ///
    /// Precondition, and the reason there is no closure parameter: the
    /// privileged work does nothing. A round with no interrupt in it then
    /// draws no randomness and touches only the counters, the clock and
    /// the bookkeeping, which is what makes committing many at once exact.
    /// A handler that reads or programs the PMU must go through
    /// [`System::syscall`].
    ///
    /// # Errors
    ///
    /// [`KernelError::AlreadyInKernel`] when called from kernel mode.
    pub fn run_syscall_loop(
        &mut self,
        compute: &InstMix,
        pre: &InstMix,
        post: &InstMix,
        iters: u64,
    ) -> Result<()> {
        if self.machine.privilege() == Privilege::Kernel {
            return Err(KernelError::AlreadyInKernel);
        }
        let conv = self.conv_mixes;
        let (entry, exit) = syscall_mixes(&conv, pre, post);
        let [e0, e1, e2] = entry;
        let [x0, x1, x2] = exit;
        let round = [(compute, Privilege::User), e0, e1, e2, x0, x1, x2];
        let uarch = self.machine.uarch();
        let round_cycles: u64 = round
            .iter()
            .map(|(mix, _)| timing::straight_cycles(uarch, mix))
            .sum();
        let mut remaining = iters;
        while remaining > 0 {
            let batch = self.rounds_until_event(round_cycles).min(remaining);
            if batch > 0 {
                for (mix, privilege) in round {
                    self.machine.execute_mix_times(mix, batch, privilege);
                }
                self.syscall_count += batch;
                let tid = self.threads.current();
                if let Some(t) = self.threads.get_mut(tid) {
                    t.add_user_instructions(compute.total_instructions() * batch);
                }
                remaining -= batch;
            }
            if remaining > 0 {
                // The round the next interrupt falls in.
                self.run_user_mix(compute);
                self.syscall(pre, |_| Ok(()), post)?;
                remaining -= 1;
            }
        }
        Ok(())
    }

    /// Spawns a new thread.
    pub fn spawn_thread(&mut self, name: impl Into<String>) -> ThreadId {
        self.threads.spawn(name)
    }

    /// Context-switches to thread `to`: enters the kernel, runs the switch
    /// path, saves the PMU for the outgoing thread and restores (or zeroes)
    /// it for the incoming one — the per-thread virtualization of §2.3.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchThread`] if `to` doesn't exist.
    pub fn switch_thread(&mut self, to: ThreadId) -> Result<()> {
        if self.threads.get(to).is_none() {
            return Err(KernelError::NoSuchThread { tid: to.0 });
        }
        let from = self.threads.current();
        if from == to {
            return Ok(());
        }
        self.do_switch(to);
        self.deliver_due_ticks();
        Ok(())
    }

    /// The raw context-switch path (kernel work + PMU save/restore),
    /// shared by [`System::switch_thread`] and the preemptive scheduler.
    fn do_switch(&mut self, to: ThreadId) {
        let from = self.threads.current();
        self.machine.set_privilege(Privilege::Kernel);
        let switch_mix = MixBuilder::new()
            .alu(CONTEXT_SWITCH_INSTRUCTIONS - 80)
            .loads(40)
            .stores(30)
            .branches(10, 6)
            .build();
        self.machine.execute_mix(&switch_mix, Privilege::Kernel);
        // Save outgoing counters.
        let snapshot = self.machine.pmu().snapshot();
        if let Some(t) = self.threads.get_mut(from) {
            t.save_counters(snapshot);
        }
        // Restore incoming counters (fresh threads start at zero).
        let incoming = self
            .threads
            .get_mut(to)
            .expect("caller verified existence")
            .take_counters();
        match incoming {
            Some(snap) => self.machine.pmu_mut().restore(&snap),
            None => {
                let zero = counterlab_cpu::pmu::PmuSnapshot {
                    pmcs: vec![0; self.machine.pmu().programmable_count()],
                    fixed: vec![0; self.machine.pmu().fixed_count()],
                };
                self.machine.pmu_mut().restore(&zero);
            }
        }
        self.threads.set_current(to);
        self.ticks_since_switch = 0;
        self.machine.set_privilege(Privilege::User);
    }

    /// Absolute cycle of the next pending interrupt (timer or I/O);
    /// `u64::MAX` when nothing is armed.
    fn next_event_cycle(&self) -> u64 {
        let t = self.timer.next_tick_cycle();
        let i = self.io.as_ref().map_or(u64::MAX, IoSource::next_cycle);
        t.min(i)
    }

    /// How many whole loop iterations fit before the next interrupt
    /// (capped at `remaining`). With no interrupt sources armed this is
    /// all of `remaining`.
    fn iters_until_event(&self, analysis: &LoopAnalysis, remaining: u64) -> u64 {
        let next = self.next_event_cycle();
        if next == u64::MAX {
            return remaining;
        }
        let now = self.machine.cycle();
        if next <= now {
            return 0;
        }
        let budget = next - now;
        // cycles_for(1) >= 1 always, so this terminates.
        let per_iter_num = analysis.cpi.num().max(1);
        let per_iter_den = analysis.cpi.den();
        let fit = budget.saturating_mul(per_iter_den) / per_iter_num;
        fit.min(remaining)
    }

    /// How many whole rounds of `round_cycles` end strictly before the
    /// next interrupt, so that no interrupt check inside them finds one
    /// due. Unbounded when nothing is armed or a round takes no cycles.
    fn rounds_until_event(&self, round_cycles: u64) -> u64 {
        let next = self.next_event_cycle();
        let now = self.machine.cycle();
        if next <= now {
            return 0;
        }
        (next - now - 1)
            .checked_div(round_cycles)
            .unwrap_or(u64::MAX)
    }

    /// Delivers one timer tick in the middle of a user loop, applying the
    /// boundary skid model. Returns the updated remaining-iteration count.
    fn deliver_tick_in_loop(
        &mut self,
        body: &InstMix,
        analysis: &LoopAnalysis,
        mut remaining: u64,
    ) -> u64 {
        // Boundary skid: the retirement boundary is imprecise by a few
        // instructions in either direction.
        let roll: f64 = self.rng.gen();
        if roll < self.skid.minus_probability && remaining > 0 && self.skid.max_magnitude >= 3 {
            // Under-count: in-flight user instructions retire after the
            // privilege switch and get attributed to the kernel. We steal
            // one whole iteration (3 instructions) from user attribution.
            self.machine
                .execute_loop_iters(body, 1, analysis, Privilege::Kernel);
            remaining -= 1;
        } else if roll < self.skid.minus_probability + self.skid.plus_probability
            && self.skid.max_magnitude > 0
        {
            // Over-count: a few instructions are counted both before and
            // after the interrupt.
            let extra = self.rng.gen_range(1..=self.skid.max_magnitude);
            let delta = counterlab_cpu::pmu::EventDelta {
                instructions: extra,
                ..Default::default()
            };
            self.machine.pmu_mut().commit(&delta, Privilege::User);
        }
        self.run_tick_handler();
        remaining
    }

    /// Delivers all due interrupts (used after straight-line segments and
    /// at kernel exit).
    fn deliver_due_ticks(&mut self) {
        loop {
            let now = self.machine.cycle();
            if self.timer.due(now) {
                self.run_tick_handler();
            } else if self.io.as_ref().is_some_and(|io| io.due(now)) {
                self.run_io_handler();
            } else {
                break;
            }
        }
    }

    // The handlers stay out of line so that `deliver_due_ticks`, run after
    // every user mix and syscall, is a few instructions when nothing is due.
    #[inline(never)]
    fn run_tick_handler(&mut self) {
        let handler = self.timer.take_tick(&mut self.rng);
        let was = self.machine.privilege();
        self.machine.set_privilege(Privilege::Kernel);
        self.machine.execute_mix(&handler, Privilege::Kernel);
        self.machine.set_privilege(was);
        self.maybe_preempt();
    }

    #[inline(never)]
    fn run_io_handler(&mut self) {
        let handler = self
            .io
            .as_mut()
            .expect("caller checked io presence")
            .take(&mut self.rng);
        let was = self.machine.privilege();
        self.machine.set_privilege(Privilege::Kernel);
        self.machine.execute_mix(&handler, Privilege::Kernel);
        self.machine.set_privilege(was);
    }

    /// Preemptive scheduling: after a full timeslice of ticks, a runnable
    /// background thread gets the CPU for its slice, then control returns.
    /// The background thread's user instructions are counted against *its*
    /// virtualized counters — the measuring thread's counts are protected
    /// by the §2.3 save/restore.
    fn maybe_preempt(&mut self) {
        let Some(p) = self.preemption else { return };
        if self.in_preemption || self.threads.len() < 2 {
            return;
        }
        self.ticks_since_switch += 1;
        if self.ticks_since_switch < p.timeslice_ticks {
            return;
        }
        self.in_preemption = true;
        let me = self.threads.current();
        let next = ThreadId((me.0 + 1) % self.threads.len() as u32);
        let was = self.machine.privilege();
        self.do_switch(next);
        // The background thread runs its slice (its ticks deliver inside).
        let background = crate::syscall::user_code_mix(p.background_instructions);
        self.machine.execute_mix(&background, Privilege::User);
        while self.timer.due(self.machine.cycle()) {
            let handler = self.timer.take_tick(&mut self.rng);
            self.machine.set_privilege(Privilege::Kernel);
            self.machine.execute_mix(&handler, Privilege::Kernel);
            self.machine.set_privilege(Privilege::User);
        }
        self.do_switch(me);
        self.machine.set_privilege(was);
        self.in_preemption = false;
    }
}

/// The four syscall-convention mixes in round-trip order.
fn convention_mixes(conv: &SyscallConvention) -> [InstMix; 4] {
    [
        conv.user_entry_mix(),
        conv.kernel_entry_mix(),
        conv.kernel_exit_mix(),
        conv.user_exit_mix(),
    ]
}

/// Three mixes of a system call, each with the privilege it runs at.
type SyscallHalf<'a> = [(&'a InstMix, Privilege); 3];

/// The mixes of one system call, in order, with the privilege each runs
/// at: the entry half (user stub, kernel entry, `pre`) and the exit half
/// (`post`, kernel exit, user stub). The privileged work runs between the
/// halves. [`System::syscall`] and [`System::run_syscall_loop`] both take
/// the protocol's layout from here.
fn syscall_mixes<'a>(
    conv: &'a [InstMix; 4],
    pre: &'a InstMix,
    post: &'a InstMix,
) -> (SyscallHalf<'a>, SyscallHalf<'a>) {
    let [user_entry, kernel_entry, kernel_exit, user_exit] = conv;
    (
        [
            (user_entry, Privilege::User),
            (kernel_entry, Privilege::Kernel),
            (pre, Privilege::Kernel),
        ],
        [
            (post, Privilege::Kernel),
            (kernel_exit, Privilege::Kernel),
            (user_exit, Privilege::User),
        ],
    )
}

/// Retires each mix once, counted at its own privilege level.
// Inlined so the round trip compiles to straight-line calls, as it did
// when spelled out: `System::syscall` is the measurement hot loop.
#[inline]
fn execute_in_turn(machine: &mut Machine, mixes: SyscallHalf<'_>) {
    for (mix, privilege) in mixes {
        machine.execute_mix(mix, privilege);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use counterlab_cpu::pmu::{CountMode, Event, PmcConfig};

    fn quiet_config() -> KernelConfig {
        KernelConfig::default()
            .with_seed(42)
            .with_skid(SkidModel::disabled())
    }

    fn count_instructions(sys: &mut System, mode: CountMode) -> usize {
        sys.machine_mut()
            .pmu_mut()
            .program(0, PmcConfig::counting(Event::InstructionsRetired, mode))
            .unwrap()
    }

    #[test]
    fn boots_in_user_mode() {
        let sys = System::new(Processor::Core2Duo, quiet_config());
        assert_eq!(sys.machine().privilege(), Privilege::User);
        assert!(!sys.machine().cr4_pce());
        assert_eq!(sys.current_thread(), ThreadId(0));
    }

    #[test]
    fn user_mix_counts_exactly_in_user_mode() {
        let mut sys = System::new(Processor::AthlonK8, quiet_config());
        let idx = count_instructions(&mut sys, CountMode::UserOnly);
        sys.run_user_mix(&InstMix::straight_line(500));
        // Ticks may fire, but they are kernel-mode: user counter is exact.
        assert_eq!(sys.machine().pmu().read_pmc(idx).unwrap(), 500);
    }

    #[test]
    fn loop_user_count_is_exact_without_skid() {
        let mut sys = System::new(Processor::Core2Duo, quiet_config());
        let idx = count_instructions(&mut sys, CountMode::UserOnly);
        let placement = CodePlacement::at(0x0804_9000);
        sys.run_user_loop(&InstMix::LOOP_BODY, 1_000_000, placement);
        assert_eq!(sys.machine().pmu().read_pmc(idx).unwrap(), 3_000_000);
    }

    #[test]
    fn long_loop_accumulates_kernel_instructions() {
        let mut sys = System::new(Processor::Core2Duo, quiet_config());
        let idx = count_instructions(&mut sys, CountMode::KernelOnly);
        let placement = CodePlacement::at(0x0804_9000);
        sys.run_user_loop(&InstMix::LOOP_BODY, 30_000_000, placement);
        let kernel = sys.machine().pmu().read_pmc(idx).unwrap();
        assert!(sys.ticks_delivered() > 0, "expected timer ticks");
        assert!(kernel > 0, "kernel instructions from tick handlers");
        // All kernel instructions come from tick handlers here.
        assert!(kernel >= sys.ticks_delivered() * 7_000);
    }

    #[test]
    fn timer_disabled_no_kernel_instructions() {
        let mut sys = System::new(Processor::Core2Duo, quiet_config().without_timer());
        let idx = count_instructions(&mut sys, CountMode::KernelOnly);
        sys.run_user_loop(
            &InstMix::LOOP_BODY,
            5_000_000,
            CodePlacement::at(0x0804_9000),
        );
        assert_eq!(sys.ticks_delivered(), 0);
        assert_eq!(sys.machine().pmu().read_pmc(idx).unwrap(), 0);
    }

    #[test]
    fn tick_count_tracks_duration() {
        let mut sys = System::new(Processor::Core2Duo, quiet_config());
        let placement = CodePlacement::at(0x0804_9000);
        sys.run_user_loop(&InstMix::LOOP_BODY, 20_000_000, placement);
        let t1 = sys.ticks_delivered();
        sys.run_user_loop(&InstMix::LOOP_BODY, 20_000_000, placement);
        let t2 = sys.ticks_delivered() - t1;
        // Same work, comparable tick counts (within ±2 for phase effects).
        assert!(t1 > 0);
        assert!(t1.abs_diff(t2) <= 2, "t1={t1} t2={t2}");
    }

    #[test]
    fn syscall_executes_handler_in_kernel_mode() {
        let mut sys = System::new(Processor::AthlonK8, quiet_config().without_timer());
        let user = count_instructions(&mut sys, CountMode::UserOnly);
        let kernel = sys
            .machine_mut()
            .pmu_mut()
            .program(
                1,
                PmcConfig::counting(Event::InstructionsRetired, CountMode::KernelOnly),
            )
            .unwrap();
        let pre = InstMix::straight_line(100);
        let post = InstMix::straight_line(50);
        let got: u64 = sys.syscall(&pre, |m| Ok(m.rdtsc()), &post).unwrap();
        let _ = got;
        let conv = sys.convention();
        assert_eq!(
            sys.machine().pmu().read_pmc(user).unwrap(),
            conv.total_user()
        );
        assert_eq!(
            sys.machine().pmu().read_pmc(kernel).unwrap(),
            conv.total_kernel() + 150
        );
        assert_eq!(sys.syscall_count(), 1);
    }

    #[test]
    fn syscall_loop_is_exact_where_interrupts_land_mid_loop() {
        use crate::config::{IoInterrupts, Preemption};
        let aggressive = SkidModel {
            plus_probability: 0.4,
            minus_probability: 0.4,
            max_magnitude: 6,
        };
        let (mut ticks, mut interrupted, mut cases) = (0, 0, 0);
        for processor in Processor::ALL {
            for hz in [0, 250, 20_000, 100_000] {
                for io in [false, true] {
                    for preempt in [false, true] {
                        let mut cfg = KernelConfig::default()
                            .with_seed(u64::from(hz) ^ 0x5C)
                            .with_hz(hz)
                            .with_skid(aggressive);
                        if io {
                            cfg = cfg.with_io(IoInterrupts {
                                rate_hz: 3_000,
                                handler_instructions: 1_500,
                            });
                        }
                        if preempt {
                            cfg = cfg.with_preemption(Preemption {
                                timeslice_ticks: 3,
                                background_instructions: 20_000,
                            });
                        }
                        let mut base = System::new(processor, cfg);
                        if preempt {
                            base.spawn_thread("background");
                        }
                        for (slot, mode) in [CountMode::UserOnly, CountMode::KernelOnly]
                            .into_iter()
                            .enumerate()
                        {
                            base.machine_mut()
                                .pmu_mut()
                                .program(
                                    slot,
                                    PmcConfig::counting(Event::InstructionsRetired, mode),
                                )
                                .unwrap();
                        }
                        for i in 0..base.machine().pmu().fixed_count() {
                            base.machine_mut()
                                .pmu_mut()
                                .set_fixed_mode(i, Some(CountMode::UserAndKernel))
                                .unwrap();
                        }
                        base.run_user_mix(&InstMix::straight_line(1_000));
                        let what = format!("{processor} hz={hz} io={io} preempt={preempt}");
                        let (t, i) = assert_syscall_loop_matches_per_call(&base, &what);
                        ticks += t;
                        interrupted += i;
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 48);
        // The exact-round path really ran: interrupts landed mid-loop.
        assert!(ticks > 100, "only {ticks} ticks delivered");
        assert!(interrupted > 100, "only {interrupted} interrupted rounds");
    }

    /// Runs 40 000 syscall rounds from `base` both ways and compares the
    /// whole state after every round an interrupt lands in and after the
    /// round before it: those are where an off-by-one in the fast-forward
    /// would show, since a late tick at the end of a segment is missing
    /// outright. Returns the ticks delivered and the interrupted rounds.
    fn assert_syscall_loop_matches_per_call(base: &System, what: &str) -> (u64, usize) {
        let compute = InstMix::straight_line(16);
        let pre = MixBuilder::new().alu(80).loads(11).branches(5, 2).build();
        let post = InstMix::straight_line(32);
        let round = |sys: &mut System| {
            sys.run_user_mix(&compute);
            sys.syscall(&pre, |_| Ok(()), &post).unwrap();
        };
        let iters = 40_000u64;
        // First pass: a round an interrupt lands in takes longer than the
        // undisturbed ones.
        let mut probe = base.clone();
        let lengths: Vec<u64> = (0..iters)
            .map(|_| {
                let start = probe.machine().cycle();
                round(&mut probe);
                probe.machine().cycle() - start
            })
            .collect();
        let quiet = *lengths.iter().min().unwrap();
        let hit: Vec<u64> = (1..=iters)
            .filter(|&r| lengths[r as usize - 1] > quiet)
            .collect();
        let mut stops: Vec<u64> = hit.iter().flat_map(|&r| [r - 1, r]).collect();
        stops.push(iters);
        stops.dedup();

        let mut fast = base.clone();
        let mut stepped = base.clone();
        let mut done = 0;
        for stop in stops {
            fast.run_syscall_loop(&compute, &pre, &post, stop - done)
                .unwrap();
            for _ in done..stop {
                round(&mut stepped);
            }
            assert_eq!(
                format!("{fast:?}"),
                format!("{stepped:?}"),
                "{what}: after {stop} rounds"
            );
            done = stop;
        }
        (stepped.ticks_delivered(), hit.len())
    }

    #[test]
    fn syscall_loop_from_kernel_mode_is_rejected() {
        let mut sys = System::new(Processor::AthlonK8, quiet_config());
        sys.machine_mut().set_privilege(Privilege::Kernel);
        let empty = InstMix::empty();
        assert_eq!(
            sys.run_syscall_loop(&empty, &empty, &empty, 3),
            Err(KernelError::AlreadyInKernel)
        );
        assert_eq!(sys.syscall_count(), 0);
    }

    #[test]
    fn nested_syscall_rejected() {
        let mut sys = System::new(Processor::AthlonK8, quiet_config());
        let r = sys.syscall(
            &InstMix::empty(),
            |m| {
                m.set_privilege(Privilege::Kernel);
                Ok(())
            },
            &InstMix::empty(),
        );
        assert!(r.is_ok());
        // Machine was left in kernel mode by the hostile closure: fix up.
        sys.machine_mut().set_privilege(Privilege::Kernel);
        let r2 = sys.syscall(&InstMix::empty(), |_| Ok(()), &InstMix::empty());
        assert_eq!(r2.unwrap_err(), KernelError::AlreadyInKernel);
    }

    #[test]
    fn switch_thread_virtualizes_counters() {
        let mut sys = System::new(Processor::AthlonK8, quiet_config().without_timer());
        let idx = count_instructions(&mut sys, CountMode::UserOnly);
        let other = sys.spawn_thread("other");
        sys.run_user_mix(&InstMix::straight_line(100));
        sys.switch_thread(other).unwrap();
        // Fresh thread sees zeroed counters.
        assert_eq!(sys.machine().pmu().read_pmc(idx).unwrap(), 0);
        sys.run_user_mix(&InstMix::straight_line(7));
        assert_eq!(sys.machine().pmu().read_pmc(idx).unwrap(), 7);
        // Switching back restores the first thread's counts.
        sys.switch_thread(ThreadId(0)).unwrap();
        assert_eq!(sys.machine().pmu().read_pmc(idx).unwrap(), 100);
    }

    #[test]
    fn switch_to_missing_thread_fails() {
        let mut sys = System::new(Processor::AthlonK8, quiet_config());
        assert_eq!(
            sys.switch_thread(ThreadId(9)).unwrap_err(),
            KernelError::NoSuchThread { tid: 9 }
        );
    }

    #[test]
    fn switch_to_self_is_noop() {
        let mut sys = System::new(Processor::AthlonK8, quiet_config().without_timer());
        let idx = count_instructions(&mut sys, CountMode::UserAndKernel);
        sys.switch_thread(ThreadId(0)).unwrap();
        assert_eq!(sys.machine().pmu().read_pmc(idx).unwrap(), 0);
    }

    #[test]
    fn skid_perturbs_user_counts_both_ways() {
        // With aggressive skid, long-loop user counts deviate from the
        // model in both directions across seeds.
        let mut deviations = Vec::new();
        for seed in 0..12 {
            let cfg = KernelConfig::default()
                .with_seed(seed)
                .with_skid(SkidModel {
                    plus_probability: 0.5,
                    minus_probability: 0.5,
                    max_magnitude: 6,
                });
            let mut sys = System::new(Processor::Core2Duo, cfg);
            let idx = count_instructions(&mut sys, CountMode::UserOnly);
            sys.run_user_loop(
                &InstMix::LOOP_BODY,
                30_000_000,
                CodePlacement::at(0x0804_9000),
            );
            let got = sys.machine().pmu().read_pmc(idx).unwrap() as i64;
            deviations.push(got - 90_000_000);
        }
        assert!(
            deviations.iter().any(|&d| d != 0),
            "some deviation expected"
        );
        // Deviations are tiny relative to the workload (< 1e-3 relative).
        assert!(deviations.iter().all(|&d| d.abs() < 1000), "{deviations:?}");
    }

    #[test]
    fn reseed_matches_fresh_boot() {
        // Drive a fresh system and a reseeded one through the same
        // program: every counter, the cycle clock, tick count and syscall
        // count must agree exactly — for the same seed and across seeds.
        let run = |sys: &mut System| {
            let idx = count_instructions(sys, CountMode::UserAndKernel);
            sys.run_user_mix(&InstMix::straight_line(500));
            sys.run_user_loop(
                &InstMix::LOOP_BODY,
                30_000_000,
                CodePlacement::at(0x0804_9013),
            );
            sys.syscall(&InstMix::straight_line(40), |m| Ok(m.rdtsc()), &InstMix::empty())
                .unwrap();
            (
                sys.machine().cycle(),
                sys.machine().pmu().read_pmc(idx).unwrap(),
                sys.ticks_delivered(),
                sys.syscall_count(),
            )
        };
        for seed in [0u64, 42, 0xDEAD_BEEF] {
            let cfg = KernelConfig::default().with_seed(seed);
            let mut fresh = System::new(Processor::Core2Duo, cfg.clone());
            let expected = run(&mut fresh);

            // Dirty a system with a different config, then reseed to cfg.
            let mut reused = System::new(
                Processor::Core2Duo,
                KernelConfig::default().with_seed(seed ^ 0x1234),
            );
            let _ = run(&mut reused);
            let other = reused.spawn_thread("noise");
            reused.switch_thread(other).unwrap();
            reused.reseed(&cfg);
            assert_eq!(run(&mut reused), expected, "seed {seed}");
            assert_eq!(reused.current_thread(), ThreadId(0));
        }
    }

    #[test]
    fn thread_bookkeeping_tracks_user_instructions() {
        let mut sys = System::new(Processor::AthlonK8, quiet_config().without_timer());
        sys.run_user_mix(&InstMix::straight_line(11));
        sys.run_user_loop(&InstMix::LOOP_BODY, 10, CodePlacement::at(0x0804_9000));
        let t = sys.threads().get(ThreadId(0)).unwrap();
        assert_eq!(t.user_instructions(), 11 + 30);
    }

    #[test]
    fn io_interrupts_add_kernel_instructions() {
        use crate::config::IoInterrupts;
        let cfg = quiet_config().without_timer().with_io(IoInterrupts {
            rate_hz: 2_000,
            handler_instructions: 1_500,
        });
        let mut sys = System::new(Processor::Core2Duo, cfg);
        let idx = count_instructions(&mut sys, CountMode::KernelOnly);
        // 20M iterations ≈ 20–40M cycles ≈ 17–33 expected I/O interrupts
        // at 2 kHz on a 2.4 GHz core.
        sys.run_user_loop(
            &InstMix::LOOP_BODY,
            20_000_000,
            CodePlacement::at(0x0804_9000),
        );
        let kernel = sys.machine().pmu().read_pmc(idx).unwrap();
        assert!(kernel >= 5 * 1_500, "kernel = {kernel}");
        assert_eq!(sys.ticks_delivered(), 0, "timer disabled");
    }

    #[test]
    fn io_disabled_by_default() {
        let mut sys = System::new(Processor::Core2Duo, quiet_config().without_timer());
        let idx = count_instructions(&mut sys, CountMode::KernelOnly);
        sys.run_user_loop(
            &InstMix::LOOP_BODY,
            20_000_000,
            CodePlacement::at(0x0804_9000),
        );
        assert_eq!(sys.machine().pmu().read_pmc(idx).unwrap(), 0);
    }

    #[test]
    fn preemption_preserves_virtualized_counts() {
        use crate::config::Preemption;
        let cfg = quiet_config().with_preemption(Preemption {
            timeslice_ticks: 2,
            background_instructions: 500_000,
        });
        let mut sys = System::new(Processor::Core2Duo, cfg);
        let idx = count_instructions(&mut sys, CountMode::UserOnly);
        let noisy = sys.spawn_thread("background");
        let _ = noisy;
        // A long loop: many ticks → several preemptions → the background
        // thread runs millions of instructions in between.
        let iters = 60_000_000;
        sys.run_user_loop(&InstMix::LOOP_BODY, iters, CodePlacement::at(0x0804_9000));
        // Despite preemption, the measuring thread's user-mode count is
        // exactly its own work.
        assert_eq!(sys.machine().pmu().read_pmc(idx).unwrap(), 3 * iters);
        // And the background thread really did run.
        let bg = sys.threads().get(noisy).unwrap();
        assert!(
            bg.saved_counters().is_some(),
            "background thread must have been scheduled"
        );
    }

    #[test]
    fn preemption_requires_second_thread() {
        use crate::config::Preemption;
        let cfg = quiet_config().with_preemption(Preemption {
            timeslice_ticks: 1,
            background_instructions: 1,
        });
        let mut sys = System::new(Processor::Core2Duo, cfg);
        let idx = count_instructions(&mut sys, CountMode::UserOnly);
        sys.run_user_loop(
            &InstMix::LOOP_BODY,
            30_000_000,
            CodePlacement::at(0x0804_9000),
        );
        // Single runnable thread: preemption never fires, counts exact.
        assert_eq!(sys.machine().pmu().read_pmc(idx).unwrap(), 90_000_000);
    }

    #[test]
    fn extension_tick_extra_increases_kernel_count() {
        let mut base = System::new(Processor::Core2Duo, quiet_config());
        let bidx = count_instructions(&mut base, CountMode::KernelOnly);
        base.run_user_loop(
            &InstMix::LOOP_BODY,
            10_000_000,
            CodePlacement::at(0x0804_9000),
        );
        let base_kernel = base.machine().pmu().read_pmc(bidx).unwrap();
        let base_ticks = base.ticks_delivered();

        let mut ext = System::new(Processor::Core2Duo, quiet_config());
        ext.set_tick_extension_extra(4_000);
        let eidx = count_instructions(&mut ext, CountMode::KernelOnly);
        ext.run_user_loop(
            &InstMix::LOOP_BODY,
            10_000_000,
            CodePlacement::at(0x0804_9000),
        );
        let ext_kernel = ext.machine().pmu().read_pmc(eidx).unwrap();

        assert!(base_ticks > 0);
        assert!(
            ext_kernel > base_kernel,
            "extension overhead must show up: {ext_kernel} vs {base_kernel}"
        );
    }
}
