"""The fault-injection engine: VULFI's two-execution strategy (paper §IV-B).

One *experiment*:

1. **Golden run** — execute the instrumented program with the runtime in
   ``count`` mode: record the output and the number ``N`` of dynamic fault
   sites encountered.
2. Choose a dynamic site index ``k ~ U{1..N}`` and (at injection time) a
   uniformly random bit of the site's value.
3. **Faulty run** — re-execute with the runtime in ``inject`` mode; the
   ``k``-th dynamic site gets one bit flipped.
4. Classify: Crash if the run trapped (or hung past the step budget), SDC
   if the output differs from the golden run, Benign otherwise; record
   whether any inserted detector fired.

Two execution engines implement the protocol, selected by ``engine=``:

* ``"direct"`` (default) — fault sites are folded into the decoded program
  of the *pristine* module (:mod:`repro.core.direct`): no clone, no IR
  rewriting, no interpreted injection chains.  The block compiler
  (:mod:`repro.vm.compile`) runs that plan as superblock chains, each
  compiled on its first entry; golden and faulty runs share one chain per
  block, and a faulty run falls back to the decoded closures only for the
  chain that may hold the target site.  Bit-identical to the instrumented
  engine — same site ids, dynamic-site order, RNG stream, records, crash
  behaviour, and dynamic-instruction totals — and much faster.
* ``"instrumented"`` — VULFI's actual mechanism: instrument a structural
  *clone* of the module (meta-preserving, see :mod:`repro.ir.clone`) with
  ``injectFault<Ty>Ty`` calls and interpret it.  Kept as the reference
  semantics (the differential oracle for the direct engine) and for
  IR-level studies.

Either way the caller's IR is never mutated and one engine can serve
thousands of experiments — all mutable injection state lives in the
per-run :class:`~repro.core.runtime.FaultRuntime`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from random import Random
from typing import Callable, Hashable

from ..errors import InjectionError, VMTrap
from ..ir.clone import clone_module
from ..ir.module import Module
from ..vm.interpreter import DEFAULT_STEP_LIMIT, Interpreter
from ..vm.snapshot import (
    Checkpoint,
    CheckpointTape,
    ConvergedToGolden,
    FrameState,
    ResumePoint,
    copy_regs,
    regs_match,
)
from .direct import build_injection_plan
from .instrument import instrument_module
from .outcomes import ExperimentResult, Outcome, outputs_equal
from .runtime import FaultRuntime, MODE_COUNT, MODE_INJECT
from .sites import StaticSite, module_sites

#: Execution engines implementing the two-execution protocol.
ENGINES = ("direct", "instrumented")

#: The engine every experiment, CLI verb and service submission uses unless
#: told otherwise.  The engine is part of every campaign's content key, so
#: changing this value re-keys the journals of default runs.
DEFAULT_ENGINE = "direct"

#: The checkpoint policy (DESIGN.md, "Golden-trace checkpoints — policy"),
#: applied to the last golden an injector executed: a tape spaces about
#: this many checkpoints over that golden's dynamic sites...
CHECKPOINTS_PER_RUN = 8
#: ...and is recorded only if that golden ran at least this many dynamic
#: instructions (the measured break-even of a tape against full replay).
MIN_TAPE_INSTRUCTIONS = 4_000

#: A runner drives one complete program execution against a fresh
#: interpreter (allocate inputs, call the kernel, gather outputs) and must
#: be deterministic: the golden and faulty runs replay the same runner.
Runner = Callable[[Interpreter], dict]

#: Supplies extra host bindings (detector runtimes); returns the bindings
#: plus a zero-argument "did any detector fire?" probe.
BindingsFactory = Callable[[], tuple[dict, Callable[[], bool]]]


@dataclass
class GoldenRun:
    output: dict
    dynamic_sites: int
    dynamic_instructions: int
    detector_fired: bool
    #: Per-dynamic-site API bit widths (``site_widths[k-1]`` is site ``k``'s
    #: width), recorded by the count run.  Lets the campaign driver pre-draw
    #: the injected bit without executing the faulty run.  ``None`` on
    #: hand-built GoldenRun objects; the engine then falls back to the lazy
    #: in-run draw (which consumes the identical RNG value).
    site_widths: bytes | None = None
    #: :class:`~repro.vm.snapshot.CheckpointTape` when the checkpoint
    #: policy recorded one, else ``None`` (always on cached goldens).
    #: Process-local: never pickled, never shipped to workers.
    checkpoints: object | None = None


class GoldenCache:
    """Input-keyed memo of golden runs (bounded LRU).

    The paper's protocol pays a full golden execution per experiment; with a
    predefined input space (§IV-B) the golden output and dynamic-site count
    for one input never change per injector, so each distinct ``input_key``
    is executed once and replayed from here afterwards.  Goldens observed
    with a fired detector are never stored (see
    :meth:`FaultInjector.cached_golden`), nor are checkpoint tapes.
    """

    def __init__(self, maxsize: int = 1024):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[Hashable, GoldenRun] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> GoldenRun | None:
        golden = self._entries.get(key)
        if golden is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return golden

    def put(self, key: Hashable, golden: GoldenRun) -> None:
        if golden.checkpoints is not None:  # tapes never enter the cache
            golden = replace(golden, checkpoints=None)
        self._entries[key] = golden
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def cache_info(self) -> dict:
        """Counters for campaign stats / benchmark provenance."""
        return {
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class FaultInjector:
    """Builds one execution engine for a module and runs experiments on it."""

    def __init__(
        self,
        module: Module,
        category: str = "all",
        functions: list[str] | None = None,
        step_limit: int = DEFAULT_STEP_LIMIT,
        clone: bool = True,
        respect_masks: bool = True,
        golden_cache_size: int = 1024,
        engine: str = DEFAULT_ENGINE,
    ):
        if engine not in ENGINES:
            raise InjectionError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        self.engine = engine
        self.category = category
        self.functions = functions
        self.step_limit = step_limit
        self.respect_masks = respect_masks
        #: ``(dynamic_sites, dynamic_instructions)`` of the last golden run.
        self._last_golden: tuple[int, int] | None = None
        #: Observability counters for the checkpoint fast-forward path.
        self.checkpoint_stats = {
            "tapes_recorded": 0,
            "checkpoints_recorded": 0,
            "restores": 0,
            "full_replays": 0,
            "sites_skipped": 0,
            "convergence_exits": 0,
            "unconsumed_resumes": 0,
        }
        #: The caller's pristine module — what a parallel worker needs to
        #: rebuild this injector (site enumeration and instrumentation are
        #: deterministic, so the rebuilt engine enumerates identical ids).
        self.source_module = module
        if engine == "direct":
            # The plan engine never mutates IR: enumerate sites on the
            # pristine module itself and fold them into the decoded program
            # (from which the block compiler builds its chains).
            self._cloned = True
            self.module = module
            self.sites = self._enumerate(self.module)
            self._plan = build_injection_plan(
                self.sites, respect_masks=respect_masks
            )
        else:
            self._cloned = clone
            self.module = clone_module(module) if clone else module
            self.sites = self._enumerate(self.module)
            self._plan = None
            instrument_module(self.module, self.sites, respect_masks=respect_masks)
        self._site_by_id = {s.site_id: s for s in self.sites}
        self.golden_cache = GoldenCache(maxsize=golden_cache_size)
        # Pooled count-mode runtime (plus its prebuilt entry closures) —
        # golden runs reset and reuse it instead of rebuilding ~20 closures
        # per run (see FaultRuntime.reset_counting).
        self._count_runtime: FaultRuntime | None = None
        self._count_prepared: tuple | None = None

    def warm(self) -> None:
        """Build this engine's per-function tables eagerly.

        Decodes every defined function's phi tables and terminators and,
        for the direct engine, installs its chain stubs now instead of on
        the first run.  Chains and decoded closures still build on their
        first execution: a block no run reaches costs nothing.  Parallel
        workers call this once at fork.
        """
        from ..vm.decode import decoded_program

        program = decoded_program(self.module, self._plan)
        for fn in self.module.defined_functions():
            program.function(fn)

    def reset_perf_counters(self) -> None:
        """Zero the observability counters (golden cache, checkpoints).

        Benchmarks measuring several regimes on one injector call this
        between regimes so each reported block covers only its own runs;
        execution caches (plans, decoded/compiled programs) are left warm
        on purpose — only the *counters* reset.  The golden cache is
        dropped too: its hit/miss counters are meaningless without its
        contents' history, and a regime should pay its own golden runs
        (and size its own checkpoint tapes).
        """
        for key in self.checkpoint_stats:
            self.checkpoint_stats[key] = 0
        self.golden_cache.clear()
        self._last_golden = None

    def _enumerate(self, module: Module) -> list[StaticSite]:
        sites = module_sites(module, self.category, self.functions)
        if not sites:
            raise InjectionError(
                f"no fault sites in category {self.category!r}"
            )
        return sites

    def engine_identity(self) -> dict:
        """The result-determining engine fields, as a plain dict.

        Everything that (together with a campaign seed and config) fixes
        the experiment stream: pristine-module content hash, engine, site
        category, step limit, and mask policy.  Checkpoint tapes never
        enter it — restores and convergence exits are proven bit-identical
        to full replay.  This is both the campaign-store key prefix (see
        :func:`repro.store.keys.campaign_identity`) and the cache key the
        campaign service shares warm engines under across tenants.
        """
        from ..store.keys import module_fingerprint

        return {
            "module": module_fingerprint(self.source_module),
            "engine": self.engine,
            "category": self.category,
            "step_limit": self.step_limit,
            "respect_masks": self.respect_masks,
        }

    def worker_payload(self) -> dict:
        """Constructor kwargs for rebuilding this injector in a worker."""
        if not self._cloned:
            raise InjectionError(
                "parallel workers need an injector built with clone=True "
                "(clone=False instruments the caller's module in place, so "
                "no pristine copy exists to ship)"
            )
        return {
            "module": self.source_module,
            "category": self.category,
            "functions": self.functions,
            "step_limit": self.step_limit,
            "respect_masks": self.respect_masks,
            "engine": self.engine,
        }

    # -- execution ------------------------------------------------------------

    def _prepare_vm(
        self,
        fault_runtime: FaultRuntime,
        bindings_factory: BindingsFactory | None,
        prepared: tuple | None = None,
    ) -> tuple[Interpreter, Callable[[], bool]]:
        vm = Interpreter(self.module, step_limit=self.step_limit, plan=self._plan)
        if self._plan is not None:
            if prepared is not None:
                vm.fault_entries, vm.fault_spans = prepared
            else:
                vm.fault_entries = fault_runtime.entries()
                vm.fault_spans = fault_runtime.spans()
            # Compiled chains read the runtime's dynamic-site counter,
            # width tape and targets directly.
            vm.fault_runtime = fault_runtime
        else:
            vm.bind_all(prepared[0] if prepared is not None else fault_runtime.bindings())
        fired: Callable[[], bool] = lambda: False
        if bindings_factory is not None:
            extra, fired = bindings_factory()
            vm.bind_all(extra)
        return vm, fired

    def golden(
        self,
        runner: Runner,
        bindings_factory: BindingsFactory | None = None,
        record_tape: bool = False,
    ) -> GoldenRun:
        """The count run.  ``record_tape``: a faulty run against it will
        execute in this process, so the checkpoint policy may tape it."""
        interval = None
        last = self._last_golden
        if record_tape and last is not None and last[1] >= MIN_TAPE_INSTRUCTIONS:
            interval = max(1, last[0] // CHECKPOINTS_PER_RUN)
        rt, prepared = self._count_runtime, self._count_prepared
        if interval is not None:
            # A fresh runtime: the pooled one keeps interval-free closures.
            rt, prepared = FaultRuntime(MODE_COUNT, tape_interval=interval), None
        elif rt is None:
            rt = self._count_runtime = FaultRuntime(MODE_COUNT)
            prepared = self._count_prepared = (
                (rt.entries(), rt.spans())
                if self._plan is not None
                else (rt.bindings(),)
            )
        else:
            rt.reset_counting()
        vm, fired = self._prepare_vm(rt, bindings_factory, prepared)
        tape = None
        if interval is not None:
            tape = CheckpointTape(interval, self.module.version)
            vm.block_hook = self._recording_hook(rt, tape)
        output = runner(vm)
        self._last_golden = (rt.dynamic_count, vm.stats.total)
        if tape is not None:
            self.checkpoint_stats["tapes_recorded"] += 1
            self.checkpoint_stats["checkpoints_recorded"] += len(tape)
        return GoldenRun(
            output=output,
            dynamic_sites=rt.dynamic_count,
            dynamic_instructions=vm.stats.total,
            detector_fired=fired(),
            site_widths=bytes(rt.site_widths),
            checkpoints=tape,
        )

    def _recording_hook(self, rt: FaultRuntime, tape: CheckpointTape):
        """Golden-run block hook: snapshot at interval boundaries.

        The runtime raises ``checkpoint_pending`` when the dynamic-site
        counter crosses an interval mark; the snapshot itself waits for the
        next depth-1 block start — the one program point the interpreter
        can later re-enter with nothing live but (memory, registers, block
        cursor, phi edge).
        """

        def hook(vm, decoded, regs, current, prev_block):
            if not rt.checkpoint_pending:
                return
            rt.acknowledge_checkpoint()
            stats = vm.stats
            tape.record(
                Checkpoint(
                    invocation=vm.current_invocation,
                    dynamic_count=rt.dynamic_count,
                    stats_total=stats.total,
                    stats_scalar=stats.scalar,
                    stats_vector=stats.vector,
                    frame=FrameState(
                        function_name=decoded.name,
                        block=current.source,
                        prev_block=prev_block,
                        regs=copy_regs(regs),
                    ),
                    memory=vm.memory.snapshot(tape.last_memory),
                )
            )

        return hook

    def cached_golden(
        self,
        runner: Runner,
        bindings_factory: BindingsFactory | None = None,
        record_tape: bool = False,
    ) -> GoldenRun:
        """The golden run for ``runner``, memoized by ``runner.input_key``.

        Runners without a stable ``input_key`` attribute (or with one of
        ``None``) always execute — the cache only ever serves inputs it can
        identify.  A golden during which a detector fired is returned but
        never stored: it signals broken invariants and must keep failing
        loudly on every experiment, not be masked by a stale cache entry.
        A tape stays with the returned golden only: cached tapes would
        multiply peak memory.
        """
        key = getattr(runner, "input_key", None)
        if key is None:
            return self.golden(runner, bindings_factory, record_tape)
        cached = self.golden_cache.get(key)
        if cached is not None:
            return cached
        golden = self.golden(runner, bindings_factory, record_tape)
        if not golden.detector_fired:
            self.golden_cache.put(key, golden)
        return golden

    def experiment(
        self,
        runner: Runner,
        rng: Random,
        bindings_factory: BindingsFactory | None = None,
        golden: GoldenRun | None = None,
    ) -> ExperimentResult:
        """Run one complete fault-injection experiment.

        ``golden`` may be passed in when the caller reuses one input for
        many experiments (the detector study does); otherwise it comes from
        the input-keyed golden cache — the paper's two-execution protocol
        with the first execution amortized across same-input experiments.
        """
        if golden is None:
            golden = self.cached_golden(runner, bindings_factory, True)
        if golden.detector_fired:
            raise InjectionError(
                "detector fired during the golden run: the invariants are "
                "wrong or the program is miscompiled"
            )
        n = golden.dynamic_sites
        if n == 0:
            raise InjectionError(
                f"program exercised no dynamic fault sites in category "
                f"{self.category!r}"
            )
        k = rng.randint(1, n)
        widths = golden.site_widths
        if widths is not None and len(widths) >= n:
            # Pre-draw the bit from the count run's recorded site width:
            # the same value, from the same RNG-stream position, as the
            # lazy draw the faulty run would have made at site k.
            return self.faulty(
                runner, golden, k, bit=rng.randrange(widths[k - 1]),
                bindings_factory=bindings_factory,
            )
        return self.faulty(
            runner, golden, k, rng=rng, bindings_factory=bindings_factory
        )

    def faulty(
        self,
        runner: Runner,
        golden: GoldenRun,
        k: int,
        bit: int | None = None,
        rng: Random | None = None,
        bindings_factory: BindingsFactory | None = None,
    ) -> ExperimentResult:
        """Run and classify the faulty half of one experiment.

        Flips ``bit`` (or an rng-drawn bit) of dynamic site ``k`` and
        classifies the outcome against ``golden``.  This is the unit of work
        a parallel campaign ships to workers: the schedule ``(input, k,
        bit)`` is drawn in the parent, so results are bit-identical to
        serial execution at any worker count.

        When ``golden`` carries a checkpoint tape, the run fast-forwards:
        it restores the latest checkpoint strictly before site ``k`` and
        executes only the suffix — same outcome, records, and
        dynamic-instruction totals as the full replay, just without the
        pre-fault prefix.  A post-injection run whose architectural state
        re-converges bit-for-bit with a recorded golden checkpoint is
        classified Benign immediately, with the full replay's result.
        """
        n = golden.dynamic_sites
        rt = FaultRuntime(MODE_INJECT, target_index=k, rng=rng, bit=bit)
        vm, fired = self._prepare_vm(rt, bindings_factory)
        cstats = self.checkpoint_stats
        tape = golden.checkpoints
        if tape is not None and (
            not tape.checkpoints
            or tape.module_version != self.module.version
            # A detector fired somewhere in this golden run: skipping (or
            # early-exiting) the replay could skip firings, so fall back to
            # full replay for the exact detected flag.
            or golden.detector_fired
        ):
            tape = None
        restored = None
        if tape is not None:
            restored = tape.best_for(k)
            if restored is not None:
                vm.pending_resume = ResumePoint(
                    invocation=restored.invocation,
                    checkpoint=restored,
                    on_restore=self._runtime_restorer(rt, restored),
                )
                cstats["restores"] += 1
                cstats["sites_skipped"] += restored.dynamic_count
            else:
                cstats["full_replays"] += 1
            hook = self._convergence_hook(rt, tape, restored)
            if hook is not None:
                vm.block_hook = hook
        try:
            output = runner(vm)
        except ConvergedToGolden:
            cstats["convergence_exits"] += 1
            detected = fired()
            if rt.record is None:  # pragma: no cover - hook arms post-injection
                raise InjectionError("convergence exit before any injection")
            return ExperimentResult(
                outcome=Outcome.BENIGN,
                detected=detected,
                injection=rt.record,
                dynamic_sites=n,
                target_index=k,
                site_categories=self._categories_of(rt),
                golden_dynamic_instructions=golden.dynamic_instructions,
                faulty_dynamic_instructions=golden.dynamic_instructions,
            )
        except VMTrap as trap:
            return ExperimentResult(
                outcome=Outcome.CRASH,
                crash_kind=trap.kind,
                detected=fired(),
                injection=rt.record,
                dynamic_sites=n,
                target_index=k,
                site_categories=self._categories_of(rt),
                golden_dynamic_instructions=golden.dynamic_instructions,
                faulty_dynamic_instructions=vm.stats.total,
            )
        if vm.pending_resume is not None:
            # The runner finished without re-invoking the checkpointed
            # function (it called run() fewer times than the golden run
            # did).  The execution simply replayed in full from site 1 —
            # correct, just unaccelerated — but it signals a runner whose
            # invocation structure is input-dependent.
            vm.pending_resume = None
            cstats["unconsumed_resumes"] += 1
        detected = fired()
        if rt.record is None:
            raise InjectionError(
                f"faulty run never reached dynamic site {k} of {n}; "
                "the program is nondeterministic"
            )
        outcome = (
            Outcome.BENIGN if outputs_equal(golden.output, output) else Outcome.SDC
        )
        return ExperimentResult(
            outcome=outcome,
            detected=detected,
            injection=rt.record,
            dynamic_sites=n,
            target_index=k,
            site_categories=self._categories_of(rt),
            golden_dynamic_instructions=golden.dynamic_instructions,
            faulty_dynamic_instructions=vm.stats.total,
        )

    @staticmethod
    def _runtime_restorer(rt: FaultRuntime, checkpoint: Checkpoint):
        """Fast-forward the fault runtime to the checkpoint's position.

        Runs inside the interpreter's restore, after memory and stats: the
        suffix then consumes dynamic sites ``dynamic_count+1 ..`` exactly
        as the full replay would.
        """

        def on_restore(count=checkpoint.dynamic_count):
            rt.dynamic_count = count

        return on_restore

    def _convergence_hook(self, rt: FaultRuntime, tape: CheckpointTape, restored):
        """Faulty-run block hook: exit Benign on golden re-convergence.

        Sound because a checkpoint pins *all* state the continuation
        depends on: once the (invocation, block, phi edge, stats,
        dynamic-site position) coordinates line up and registers plus
        memory compare bit-for-bit, the remaining execution is the golden
        suffix — the final output equals the golden output and no further
        site can be the (already-hit) target.  Comparisons are bitwise
        (floats by bit pattern), so -0.0 vs 0.0 or a different NaN payload
        never converges.
        """
        checkpoints = tape.checkpoints
        # Convergence can only happen *after* the restore point (or, on a
        # full replay, after injection — the pre-injection guard below).
        idx = restored.index + 1 if restored is not None else 0
        if idx >= len(checkpoints):
            return None
        records = rt.records
        last = len(checkpoints)

        def hook(vm, decoded, regs, current, prev_block):
            nonlocal idx
            if not records:
                return  # pre-injection: the prefix matches golden trivially
            count = rt.dynamic_count
            inv = vm.current_invocation
            while True:
                cp = checkpoints[idx]
                if cp.invocation > inv or (
                    cp.invocation == inv and cp.dynamic_count >= count
                ):
                    break
                idx += 1
                if idx >= last:
                    vm.block_hook = None  # ran past the tape: give up
                    return
            if cp.invocation != inv or cp.dynamic_count != count:
                return
            stats = vm.stats
            if (
                cp.frame.block is not current.source
                or cp.frame.prev_block is not prev_block
                or cp.stats_total != stats.total
                or cp.stats_scalar != stats.scalar
                or cp.stats_vector != stats.vector
            ):
                return
            if not regs_match(regs, cp.frame.regs):
                return
            if not cp.memory.matches(vm.memory):
                return
            raise ConvergedToGolden(cp)

        return hook

    def _categories_of(self, rt: FaultRuntime) -> frozenset[str]:
        if rt.record is None:
            return frozenset()
        site = self._site_by_id.get(rt.record.site_id)
        return site.categories if site is not None else frozenset()
