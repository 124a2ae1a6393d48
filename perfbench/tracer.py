"""In-memory span tracing of the onigraph layers, installed from outside.

The tracer wraps every public function of the traced modules and patches
each name where its consumers look it up (``onigraph.training.forward_batch``,
``onigraph.structure.matmul``, ...), so nothing under ``src/`` changes.
Every call becomes a span ``(name, start, end, parent, origin)``. The
benchmark opens one root span per set-up repetition, training step, eval
repetition, adjacency repetition and centrality; everything a root causes
nests under it.

Backward rules are timed by wrapping ``autodiff.record_op``: the rule an op
appends to the active tape is replaced by a timed copy, whose span is named
``<op>.bwd`` and whose ``origin`` is the layer that called the op forward.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("data", "structure", "model", "autodiff", "training", "centrality")

# ``train`` spans every step; the benchmark's step roots replace it.
# ``record_op`` is wrapped separately to time backward rules.
UNTRACED = {"training.train", "autodiff.record_op", "autodiff.active_tape"}

# Op kinds reported per training step. ``add`` (the residual) is left out:
# no layer of either workload keeps its width, so it never runs.
OPS = (
    "block_matmul",
    "matmul",
    "batchnorm_features",
    "unary_activation",
    "concat_features",
    "block_reduce",
    "add_row_bias",
    "mul_mask",
    "add_const",
    "scale",
    "transpose",
    "reshape",
    "mse_loss",
)


def _onigraph_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "onigraph"]


def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Span recorder plus the patches that feed it.

    ``spans`` rows are ``[name, start, end, parent, origin]``; ``parent`` is
    the index of the enclosing span or -1 for a root, ``origin`` is set on
    backward-rule spans only. ``counters`` are keyed by (root name, key).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.mask_digests: list[bytes] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str, origin: str | None = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), math.nan, parent, origin])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        top = self.stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def root_name(self) -> str | None:
        return self.spans[self.stack[0]][0] if self.stack else None

    def count(self, key: str, value: float) -> None:
        root = self.root_name()
        if root is not None:
            self.counters[(root, key)] += value

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import onigraph  # noqa: F401  (loads every traced module)
        from onigraph import autodiff

        modules = _onigraph_modules()
        for layer in LAYERS:
            module = sys.modules[f"onigraph.{layer}"]
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or name in UNTRACED
                ):
                    continue
                self._patch_everywhere(modules, fn, self._wrap(name, fn))
        self._patch(autodiff, "record_op", self._wrap_record_op(autodiff.record_op))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _patch_everywhere(self, modules, fn, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        after = {
            "autodiff.block_matmul": self._count_block_matmul_flop,
            "structure.top_edges_mask": self._digest_mask,
            "centrality.eigenvector_centrality": self._count_centrality,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _wrap_record_op(self, record_op):
        from onigraph.autodiff import active_tape

        def traced_record_op(output, inputs, rule):
            if active_tape() is None or not output.requires_grad:
                return record_op(output, inputs, rule)
            # stack[-1] is the op's own span, stack[-2] the layer that called it
            op = self.spans[self.stack[-1]][0].split(".", 1)[1] if self.stack else "unknown"
            origin = (
                _layer_of(self.spans[self.stack[-2]][0]) if len(self.stack) > 1 else "unknown"
            )
            self.count("tape_entries", 1)
            self.count("tape_bytes", output.data.nbytes)

            def timed_rule(g):
                idx = self.open(f"{op}.bwd", origin)
                try:
                    return rule(g)
                finally:
                    self.close(idx)

            return record_op(output, inputs, timed_rule)

        return traced_record_op

    def _count_block_matmul_flop(self, args, result) -> None:
        from onigraph.autodiff import active_tape

        a, z = args[0], args[1]
        flop = 2.0 * a.shape[0] * z.shape[0] * z.shape[1]
        passes = 1
        if active_tape() is not None and result.requires_grad:
            passes += int(a.requires_grad) + int(z.requires_grad)
        self.count("block_matmul_flop", flop * passes)

    def _count_centrality(self, args, result) -> None:
        self.count("centrality_iterations", result.iterations)
        self.count("centrality_residual", result.residual)

    def _digest_mask(self, args, result) -> None:
        if self.root_name() == "step":
            self.mask_digests.append(hashlib.sha1(np.packbits(result).tobytes()).digest())

    # -- summary ----------------------------------------------------------

    def summarize(self, followed_steps: set[int]) -> dict[str, float]:
        """Per-layer metrics. Training-step figures are means per step root;
        set-up and eval figures are means per root of that kind.
        ``followed_steps`` are the step roots another step followed: only
        those end with the assembly of the next batch."""
        spans = self.spans
        root_of = [0] * len(spans)
        child_s = [0.0] * len(spans)
        for i, (_, start, end, parent, _) in enumerate(spans):
            root_of[i] = i if parent < 0 else root_of[parent]
            if parent >= 0:
                child_s[parent] += end - start

        roots: dict[str, list[int]] = defaultdict(list)
        incl: dict[tuple, float] = defaultdict(float)  # (root, name)
        self_s: dict[tuple, float] = defaultdict(float)  # (root, name)
        calls: dict[tuple, int] = defaultdict(int)  # (root, name)
        by_caller: dict[tuple, float] = defaultdict(float)  # (root, name, calling layer)
        for i, (name, start, end, parent, origin) in enumerate(spans):
            if parent < 0:
                roots[name].append(i)
                continue
            key = (spans[root_of[i]][0], name)
            incl[key] += end - start
            self_s[key] += end - start - child_s[i]
            calls[key] += 1
            caller = origin if origin is not None else _layer_of(spans[parent][0])
            by_caller[key + (caller,)] += end - start

        def per(root, name, table=incl):
            return table.get((root, name), 0.0) / max(1, len(roots[root]))

        def per_step_from(caller, name):
            return by_caller.get(("step", name, caller), 0.0) / max(1, len(roots["step"]))

        steps = roots["step"]
        step_s = float(np.mean([spans[i][2] - spans[i][1] for i in steps])) if steps else math.nan
        last_opt_end: dict[int, float] = {}
        for i, (name, _, end, parent, _) in enumerate(spans):
            if name == "autodiff.sgd_nesterov_step" and parent in followed_steps:
                last_opt_end[parent] = max(end, last_opt_end.get(parent, -math.inf))
        waits = [spans[i][2] - t for i, t in last_opt_end.items()]

        m: dict[str, float] = {}
        m["data.synth_s"] = per("setup", "data.synth_teleconnection_dataset")
        m["data.prepare_dataset_s"] = per("setup", "data.prepare_dataset")

        m["training.forward_s"] = per("step", "model.forward_batch") + per("step", "autodiff.mse_loss")
        m["training.backward_s"] = per("step", "autodiff.backward")
        m["training.optimizer_s"] = per("step", "autodiff.sgd_nesterov_step")
        m["training.batch_wait_s"] = float(np.mean(waits)) if waits else 0.0
        m["training.save_checkpoint_s"] = per("eval", "training.save_checkpoint")
        m["training.load_checkpoint_s"] = per("eval", "training.load_checkpoint")
        m["training.predict_s"] = per("eval", "training.predict_samples")

        model_names = {name for root, name in self_s if root == "step" and _layer_of(name) == "model"}
        m["model.forward_train_s"] = sum(per("step", n, self_s) for n in model_names)
        m["model.forward_eval_s"] = per("eval", "model.forward_batch")
        m["model.model_adjacency_s"] = per("eval", "model.model_adjacency")
        m["model.model_adjacency_calls"] = per("eval", "model.model_adjacency", calls)

        m["structure.compute_scores_s"] = per("step", "structure.compute_scores")
        m["structure.top_edges_mask_s"] = per("step", "structure.top_edges_mask")
        m["structure.build_adjacency_s"] = per("step", "structure.build_adjacency")
        m["structure.backward_s"] = sum(per_step_from("structure", f"{op}.bwd") for op in OPS)
        changes = [a != b for a, b in zip(self.mask_digests, self.mask_digests[1:])]
        m["structure.mask_changed_share"] = float(np.mean(changes)) if changes else 0.0

        for op in OPS:
            m[f"autodiff.{op}.calls"] = per("step", f"autodiff.{op}", calls)
            m[f"autodiff.{op}.fwd_s"] = per("step", f"autodiff.{op}")
            m[f"autodiff.{op}.bwd_s"] = per("step", f"{op}.bwd")
        gflop = per("step", "block_matmul_flop", self.counters) / 1e9
        bm_s = m["autodiff.block_matmul.fwd_s"] + m["autodiff.block_matmul.bwd_s"]
        m["autodiff.block_matmul.gflop"] = gflop
        m["autodiff.block_matmul.gflops"] = gflop / bm_s if bm_s > 0 else 0.0
        m["autodiff.backward_walk_s"] = per("step", "autodiff.backward", self_s)
        m["autodiff.tape_entries"] = per("step", "tape_entries", self.counters)
        m["autodiff.tape_bytes"] = per("step", "tape_bytes", self.counters)

        # 0 on a workload that runs no centrality
        m["centrality.eigenvector_s"] = per("centrality", "centrality.eigenvector_centrality")
        m["centrality.iterations"] = per("centrality", "centrality_iterations", self.counters)
        m["centrality.residual"] = per("centrality", "centrality_residual", self.counters)

        norm_act = sum(
            per_step_from("model", name)
            for name in (
                "autodiff.batchnorm_features",
                "batchnorm_features.bwd",
                "autodiff.unary_activation",
                "unary_activation.bwd",
            )
        )
        m["share.aggregation"] = bm_s / step_s
        m["share.structure"] = (m["structure.build_adjacency_s"] + m["structure.backward_s"]) / step_s
        m["share.top_edges"] = m["structure.top_edges_mask_s"] / step_s
        m["share.norm_act"] = norm_act / step_s
        return m

    def dump(self, path) -> None:
        """Write the spans as one JSON array per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, origin in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, origin]))
                fh.write("\n")
