"""The benchmark's workloads and the phases each one runs.

Every workload is one closed-loop training run in one process, driven
through onigraph's public API on a synthetic teleconnection grid made from
the run's seed:

1. set-up: synthesize the grid, ``prepare_dataset``, ``build_model``,
   ``SETUP_REPS`` times; the last repetition is used;
2. training: one fixed optimizer-step budget from a fresh model;
3. measuring rounds, at least ``MIN_REPS`` and for ``--seconds`` seconds,
   each of one more set-up, one eval (save the checkpoint, reload it,
   ``evaluate`` on the test split), ``ADJACENCY_REPS`` calls of
   ``model_adjacency`` and, on ``desk_ablation``, one
   ``eigenvector_centrality`` of the learned adjacency.

Every timed sample is scaled to a fixed host speed (see ``HostSpeed``),
and each end-to-end time is the median of its scaled samples. Every output
is checked, and each check counts in ``attempted``/``failed``.

Centrality runs on ``desk_ablation`` only. On ``wide_graph_train`` the
graph learned in a short run can make it raise ``ConvergenceError`` after
10,000 iterations (seed 602), which would fail the run.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from onigraph import centrality, data, model, training
from onigraph.errors import ConvergenceError
from tracer import Tracer

SETUP_REPS = 5
MIN_REPS = 8
MAX_REPS = 1000
ADJACENCY_REPS = 3
# Largest accepted ||A v - lambda v||_2 of a centrality result. The library
# stops once an iteration moves v by less than 1e-10, which leaves a
# residual near lambda * 1e-10: at most 7e-10 on desk graphs (lambda 3.4 to 7.6).
CENTRALITY_RESIDUAL_TOL = 1e-8
# Grid and sample shape shared by every workload.
MONTHS = 240
LEAD = 2
WINDOW = 3
NOISE_SD = 0.1
TRAIN_FRACTION = 0.8
# Time of one HostSpeed probe on an undisturbed 2-vCPU Xeon host with one
# BLAS thread: its lowest decile over 2,000 probes.
PROBE_REFERENCE_S = 2.06e-4
# The probe slows more than the benchmark's code when the host is busy, so
# full scaling over-corrects: over two batches of ten runs per workload,
# exponents of 0.6 to 0.7 gave the smallest spreads of the end-to-end
# times, and 1.0 up to twice those spreads.
SPEED_EXPONENT = 0.6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_lat: int
    n_lon: int
    layer_dims: tuple[int, ...]
    batch_size: int
    epochs: int
    train_samples: int | None = None  # leading samples of the train split; None: all
    background_sd: float | None = None
    ablation: bool = False  # also train a twin on fixed local edges
    centrality: bool = False  # rank nodes by eigenvector centrality in each round

    @property
    def edge_modes(self) -> tuple[str, ...]:
        return ("learned", "local") if self.ablation else ("learned",)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide_graph_train",
            why="full-grid N=1345, narrow layers (32/16), batch 8: graph aggregation and the "
            "O(N^2) structure learner with its top-e selection share the step",
            n_lat=32,
            n_lon=42,
            layer_dims=(32, 16),
            batch_size=8,
            epochs=1,
            train_samples=128,
        ),
        Workload(
            name="desk_ablation",
            why="8x8 learned-vs-local ablation, 60 epochs each: many short steps weight "
            "per-op fixed costs, batchnorm and activations",
            n_lat=8,
            n_lon=8,
            layer_dims=(32, 16),
            batch_size=64,
            epochs=60,
            background_sd=1.0,
            ablation=True,
            centrality=True,
        ),
    )
}


class Checks:
    """Counts output checks and phase failures for ``attempted``/``failed``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


class HostSpeed:
    """Scales timings to a fixed host speed with a reference-kernel probe.

    The shared host slows this process by up to a third for seconds at a
    time, and different code slows together: measured in 1.5-second
    windows over a minute, an einsum, a loop of small numpy ops and a sort
    each varied with a coefficient of variation of 0.13 to 0.17, their
    ratios only with 0.055. So a timed sample is multiplied by
    ``(PROBE_REFERENCE_S / r) ** SPEED_EXPONENT``, with ``r`` the mean of
    the probes taken just before and just after it. Scaled figures read as
    seconds on the undisturbed host; the unscaled ones go to the run's
    metadata.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(64, 64))
        self._z = rng.normal(size=(4, 64, 32))
        self._small = [rng.normal(size=(32, 16)) for _ in range(8)]

    def probe(self) -> float:
        """Median time of three runs of the reference kernel."""
        times = []
        for _ in range(3):
            t0 = perf_counter()
            np.einsum("ij,bjd->bid", self._a, self._z)
            for m in self._small:
                (m * m).sum()
            times.append(perf_counter() - t0)
        return sorted(times)[1]

    @staticmethod
    def scaled(raw_s: float, probe_before: float, probe_after: float) -> float:
        speed = 2.0 * PROBE_REFERENCE_S / (probe_before + probe_after)
        return raw_s * speed**SPEED_EXPONENT

    def time(self, body):
        """Run ``body``; return (result, unscaled seconds, scaling factor)."""
        before = self.probe()
        t0 = perf_counter()
        result = body()
        raw = perf_counter() - t0
        return result, raw, self.scaled(1.0, before, self.probe())


class StepClock:
    """Marks each optimizer step by patching ``training.forward_batch``,
    which ``train`` calls once per step. A step lasts from one forward
    call to the next (the last one to the return of ``train``), so it
    covers forward, backward, the optimizer and the next batch assembly.
    Under a tracer every step is a root span."""

    def __init__(self, host: HostSpeed, tracer=None):
        self.host = host
        self.tracer = tracer
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.probes: list[float] = []
        self.followed: set[int] = set()  # step roots that another step followed
        self._root: int | None = None

    @contextmanager
    def installed(self):
        original = training.forward_batch

        def clocked(*args, **kwargs):
            if self.starts:
                self.ends.append(perf_counter())
            if self.tracer is not None and self._root is not None:
                self.tracer.close(self._root)
                self.followed.add(self._root)
            self.probes.append(self.host.probe())
            if self.tracer is not None:
                self._root = self.tracer.open("step")
            self.starts.append(perf_counter())
            return original(*args, **kwargs)

        training.forward_batch = clocked
        try:
            yield self
        finally:
            self.ends.append(perf_counter())
            training.forward_batch = original
            if self._root is not None:
                self.tracer.close(self._root)
                self._root = None
            self.probes.append(self.host.probe())

    def durations(self) -> tuple[list[float], list[float]]:
        """Unscaled and scaled step durations; a step excludes the probes."""
        raw = [e - s for s, e in zip(self.starts, self.ends)]
        scaled = [
            HostSpeed.scaled(r, p0, p1)
            for r, p0, p1 in zip(raw, self.probes, self.probes[1:])
        ]
        return raw, scaled


@contextmanager
def _root(tracer, name: str):
    idx = tracer.open(name) if tracer is not None else None
    try:
        yield
    finally:
        if idx is not None:
            tracer.close(idx)


def _repeat(body, budget_s: float) -> None:
    """Run ``body`` at least MIN_REPS times and until ``budget_s`` has
    passed, at most MAX_REPS times."""
    started = perf_counter()
    reps = 0
    while reps < MIN_REPS or (perf_counter() - started < budget_s and reps < MAX_REPS):
        body()
        reps += 1


def _sha1(arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class WorkloadRun:
    """One run of one workload: the phases, their checks and metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: float, out_dir: Path, tracer=None):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.tracer = tracer
        self.checks = Checks()
        self.train_cfg = training.TrainConfig(
            batch_size=workload.batch_size,
            epochs=workload.epochs,
            seed=seed,
            lead_months=LEAD,
            window=WINDOW,
            preset="gcn2a",
        )
        self.model_cfg = training.model_config_from_preset(
            "gcn2a",
            window=WINDOW,
            lead_months=LEAD,
            layer_dims=list(workload.layer_dims),
        )
        self.host = HostSpeed()
        # (unscaled, scaled) seconds per sample, by metric
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.followed_steps: set[int] = set()
        self.first_centrality = None
        self.metrics: dict[str, float] = {}
        self.info: dict = {}

    # -- phases -----------------------------------------------------------

    def _sample(self, metric: str, raw_s: float, factor: float) -> None:
        self.samples[metric].append((raw_s, raw_s * factor))

    def _setup_once(self) -> dict:
        made, raw, factor = self.host.time(self._make)
        self._sample("setup_s", raw, factor)
        return made

    def _make(self) -> dict:
        w = self.w
        with _root(self.tracer, "setup"):
            grid, spec = data.synth_teleconnection_dataset(
                w.n_lat,
                w.n_lon,
                MONTHS,
                LEAD,
                seed=self.seed,
                noise_sd=NOISE_SD,
                background_sd=w.background_sd,
            )
            bundle = data.prepare_dataset(
                grid, window=WINDOW, lead=LEAD, train_fraction=TRAIN_FRACTION
            )
            models = {mode: self._build(bundle, mode) for mode in w.edge_modes}
        return dict(grid=grid, spec=spec, bundle=bundle, models=models)

    def setup(self) -> None:
        for _ in range(SETUP_REPS):
            made = self._setup_once()
        grid, bundle = made["grid"], made["bundle"]
        self.spec, self.bundle, self.models = made["spec"], bundle, made["models"]
        train_set = bundle.train
        if self.w.train_samples is not None:
            k = self.w.train_samples
            train_set = replace(
                train_set,
                inputs=train_set.inputs[:k],
                targets=train_set.targets[:k],
                window_end=train_set.window_end[:k],
                end_calendar_month=train_set.end_calendar_month[:k],
            )
        self.train_set = train_set
        self.info["data_sha1"] = _sha1([grid.data])
        self.info["nodes"] = bundle.nodes.count
        self.info["sample_bytes"] = sum(
            x.data.nbytes for part in (bundle.train, bundle.test) for x in part.inputs
        )

    def _build(self, bundle, mode: str):
        return training.build_model(bundle, self.model_cfg, self.train_cfg, edge_mode=mode)

    def train_episode(self, models, tracer=None) -> tuple[dict[str, list], dict[str, list]]:
        """Train each model of the workload on the step budget; return
        each model's step durations and loss history."""
        durations, histories = {}, {}
        for mode, state in models.items():
            clock = StepClock(self.host, tracer)
            with clock.installed():
                _, history = training.train(state, self.train_set, self.train_cfg)
            durations[mode] = list(zip(*clock.durations()))
            histories[mode] = history
            self.followed_steps |= clock.followed
            for _, _, loss in history:
                self.checks.check(bool(np.isfinite(loss)), f"{mode} training loss is finite")
        return durations, histories

    def train(self, trace: bool) -> None:
        """One untraced episode; traced runs then add one traced episode on
        a fresh model, for the overhead.

        The step-time percentile covers the learned-edge model only: in
        the ablation its steps are slower than the local twin's, and the
        median of an even mix of two step populations would fall between
        them."""
        step_times, first = self.train_episode(self.models)
        if trace:
            fresh = {mode: self._build(self.bundle, mode) for mode in self.w.edge_modes}
            self.tracer.install()
            traced, again = self.train_episode(fresh, self.tracer)
            self.models = fresh
            self.metrics["bench.trace_overhead_share"] = (
                statistics.median(s for _, s in traced["learned"])
                / statistics.median(s for _, s in step_times["learned"])
                - 1.0
            )
            self.checks.check(again == first, "traced losses equal untraced losses")
        last_epoch = [loss for epoch, _, loss in first["learned"] if epoch == self.w.epochs - 1]
        self.info["steps_per_episode"] = sum(len(h) for h in first.values())
        self.info["loss_sha1"] = _sha1([np.asarray(h)[:, 2] for h in first.values()])
        self.info["final_train_loss"] = float(np.mean(last_epoch))
        if not trace:
            samples = len(self.train_set) * self.w.epochs * len(self.w.edge_modes)
            all_steps = [d for steps in step_times.values() for d in steps]
            self.samples["train_step_p50_s"] = step_times["learned"]
            self.samples["train_samples_per_s"] = [
                tuple(samples / sum(col) for col in zip(*all_steps))
            ]

    def measure(self) -> None:
        """Rounds of one set-up, one eval, the adjacency repetitions and a
        centrality, so each phase is sampled across the whole measuring
        window."""
        with _root(self.tracer, "reference"):
            refs = {mode: training.evaluate(s, self.bundle.test) for mode, s in self.models.items()}
        for mode, report in refs.items():
            self.checks.check(
                bool(np.all(np.isfinite(report.predictions))), f"{mode} predictions are finite"
            )
        self.out_dir.mkdir(parents=True, exist_ok=True)
        paths = {m: self.out_dir / f"{self.w.name}-{self.seed}-{m}.ckpt" for m in self.models}

        def one_round():
            self._setup_once()
            _, raw, factor = self.host.time(lambda: self._eval_once(paths, refs))
            self._sample("eval_s", raw, factor)
            for _ in range(ADJACENCY_REPS):
                adj, raw, factor = self.host.time(self._adjacency_once)
                self._sample("adjacency_s", raw, factor)
                self._check_adjacency(adj)
            if self.w.centrality:
                self._centrality_once(adj)

        try:
            _repeat(one_round, self.seconds)
            self.info["checkpoint_bytes"] = sum(p.stat().st_size for p in paths.values())
        finally:
            for p in paths.values():
                p.unlink(missing_ok=True)
        self.info["test_r"] = refs["learned"].r
        if "local" in refs:
            self.info["test_r_local"] = refs["local"].r
            self.info["test_r_gap"] = refs["learned"].r - refs["local"].r

    def _eval_once(self, paths, refs) -> None:
        with _root(self.tracer, "eval"):
            for mode, state in self.models.items():
                training.save_checkpoint(state, paths[mode])
                loaded = training.load_checkpoint(paths[mode])
                report = training.evaluate(loaded, self.bundle.test)
                self.checks.check(
                    report.predictions.tobytes() == refs[mode].predictions.tobytes(),
                    f"reloaded {mode} checkpoint predicts bit-identically",
                )

    def _adjacency_once(self):
        with _root(self.tracer, "adjacency"):
            return model.model_adjacency(self.models["learned"]).data

    def _centrality_once(self, adj) -> None:
        """Eigenvector centrality of the learned adjacency. The first result
        gives the planted drivers' rank; every later one must equal it."""
        with _root(self.tracer, "centrality"):
            try:
                scores = centrality.eigenvector_centrality(adj)
            except ConvergenceError:
                self.checks.check(False, "centrality converges")
                return
        self.checks.check(
            scores.residual < CENTRALITY_RESIDUAL_TOL,
            f"centrality residual is below {CENTRALITY_RESIDUAL_TOL:g}",
        )
        if self.first_centrality is None:
            self.first_centrality = scores.scores
            self.info["centrality_iterations"] = scores.iterations
            self.info["driver_rank"] = _driver_rank(scores.scores, self.bundle, self.spec)
        self.checks.check(
            scores.scores.tobytes() == self.first_centrality.tobytes(),
            "repeated centrality is bit-identical",
        )

    def _check_adjacency(self, adj) -> None:
        state = self.models["learned"]
        off = adj[~np.eye(state.node_count, dtype=bool)]
        self.checks.check(
            int(np.count_nonzero(off)) == state.structure.max_edges
            and bool(np.all(np.diag(adj) == 1.0)),
            "learned adjacency keeps max_edges edges plus N self-loops",
        )


def _driver_rank(scores, bundle, spec) -> float:
    """Mean centrality rank (1 = most central) of the planted driver cells."""
    rank_of = np.empty(len(scores), dtype=int)
    rank_of[np.argsort(-scores, kind="stable")] = np.arange(1, len(scores) + 1)
    cells = bundle.nodes.cells
    drivers = [
        int(np.flatnonzero((cells[:, 0] == r) & (cells[:, 1] == c))[0])
        for r, c in spec.driver_cells
    ]
    return float(np.mean(rank_of[drivers]))


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path
) -> tuple[dict, dict]:
    """Run every phase; return (result, info). ``result`` holds ``correct``,
    ``attempted``, ``failed`` and the metrics: end-to-end ones untraced,
    per-layer ones traced."""
    tracer = Tracer() if trace else None
    run = WorkloadRun(workload, seed, seconds, out_dir, tracer)
    phases = ["setup", "train", "measure"]
    done = 0
    try:
        if tracer is not None:
            tracer.install()
        run.setup()
        done += 1
        if tracer is not None:
            tracer.uninstall()
        run.train(trace)
        done += 1
        run.measure()
        done += 1
    except Exception:
        traceback.print_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
    run.checks.attempted += len(phases)
    run.checks.failed += len(phases) - done
    if done < len(phases):
        run.checks.notes.append(f"phase {phases[done]} raised")

    metrics = dict(run.metrics)
    unscaled = {}
    for name, pairs in run.samples.items():
        raw, scaled = zip(*pairs)
        metrics[name] = statistics.median(scaled)
        unscaled[name] = statistics.median(raw)
    run.info["unscaled"] = unscaled
    if done == len(phases):
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        layer = tracer.summarize(run.followed_steps) if done == len(phases) else {}
        layer["bench.trace_overhead_share"] = metrics.get("bench.trace_overhead_share", math.nan)
        layer["data.sample_bytes"] = run.info.get("sample_bytes", math.nan)
        layer["training.checkpoint_bytes"] = run.info.get("checkpoint_bytes", math.nan)
        metrics = layer
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(out_dir / f"trace-{workload.name}-{seed}.jsonl")
    else:
        metrics.pop("bench.trace_overhead_share", None)
    run.info["failures"] = run.checks.notes
    result = {
        "correct": run.checks.failed == 0,
        "attempted": run.checks.attempted,
        "failed": run.checks.failed,
        "metrics": metrics,
    }
    return result, run.info
