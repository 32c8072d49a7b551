"""In-memory span tracer that wraps posediff's public functions from outside.

``Tracer.install()`` replaces each traced callable with a wrapper that records
a span (name, start, end, parent, phase) around the call. A module-level
function is replaced in every ``posediff`` module that binds it, because
modules import each other's functions by name (``cli`` calls its own
``mpjpe`` and ``save_checkpoint`` bindings). Methods are replaced on their
class. ``uninstall()`` restores the originals, so the untraced phase of a
traced run executes without span wrappers.

Span times come from the clock given to the tracer; the benchmark passes one
that stands still while its calibration kernel runs. Spans live in a list
until ``write()`` dumps them at the end of the run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _graph_stats(root):
    """Nodes reachable from ``root`` that take part in backward, and their bytes."""
    seen, stack, nbytes = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nbytes += node.data.nbytes
        stack.extend(p for p in node._parents if p.requires_grad)
    return len(seen), nbytes


class Tracer:
    def __init__(self, now=time.perf_counter):
        self.now = now
        self.spans = []  # [name, start, end, parent index or -1, phase]
        self.stack = []
        self.phase = "setup"
        self.samples = defaultdict(list)  # (phase, key) -> per-call observations
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if before is not None:
                before(args, kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = len(tracer.spans)
            span = [label, tracer.now(), None, parent, tracer.phase]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = tracer.now()
                tracer.stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _patch_function(self, module, attr, name, **hooks):
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "posediff" or mod_name.startswith("posediff."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr, name, **hooks):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, **hooks))

    # -- hooks ---------------------------------------------------------------

    def _before_backward(self, args, kwargs):
        nodes, nbytes = _graph_stats(args[0])
        self.samples[(self.phase, "graph_nodes")].append(nodes)
        self.samples[(self.phase, "graph_bytes")].append(nbytes)

    def _after_jpma(self, args, kwargs, result):
        hyps = _arg(args, kwargs, 0, "hyps")
        self.samples[(self.phase, "hypotheses_used_ratio")].append(
            len(np.unique(result[1])) / hyps.count
        )

    def _after_write(self, args, kwargs, result):
        path = _arg(args, kwargs, 0, "path")
        self.samples[(self.phase, "container_write_bytes")].append(os.path.getsize(path))

    # -- install ---------------------------------------------------------------

    def install(self):
        from posediff import (
            autodiff, cli, config, container, data, denoiser, diffusion,
            metrics, prompts, sampler, training,
        )

        Den = denoiser.Denoiser
        self._patch_method(autodiff.Tensor, "backward", "autodiff.backward",
                           before=self._before_backward)
        self._patch_method(Den, "denoise", "denoiser.denoise")
        self._patch_method(Den, "embed_input", "denoiser.embed_input")
        self._patch_method(Den, "timestamp_embed", "denoiser.timestamp_embed")
        self._patch_method(
            Den, "mhsa_block",
            lambda a, k: f"denoiser.{_arg(a, k, 2, 'axis')}_block",
        )
        self._patch_method(Den, "prompt_cross_attention", "denoiser.cross_attention")
        self._patch_method(Den, "pts_stylize", "denoiser.pts")
        self._patch_method(Den, "decode_head", "denoiser.head")
        self._patch_function(denoiser, "linear", "denoiser.linear")
        self._patch_method(training.AdamW, "step", "training.adamw_step")
        self._patch_method(training.Trainer, "train_epoch", "training.train_epoch")
        self._patch_function(training, "save_checkpoint", "training.checkpoint_write")
        self._patch_method(prompts.PromptBank, "assemble", "prompts.assemble")
        self._patch_function(diffusion, "forward_diffuse", "diffusion.forward_diffuse")
        self._patch_function(diffusion, "ddim_step", "diffusion.ddim_step")
        self._patch_function(sampler, "ddim_loop", "sampler.ddim_loop")
        self._patch_function(sampler, "jpma_aggregate", "sampler.jpma",
                             after=self._after_jpma)
        self._patch_function(sampler, "reproject", "sampler.reproject")
        self._patch_function(metrics, "p_mpjpe", "metrics.p_mpjpe")
        self._patch_function(metrics, "mpjpe", "metrics.mpjpe")
        self._patch_function(container, "write_container", "container.write",
                             after=self._after_write)
        self._patch_function(container, "read_container", "container.read")
        self._patch_function(data, "synth_generate", "data.synth")
        self._patch_function(data, "synth_generate_multi", "data.synth")
        self._patch_function(data, "load_dataset", "data.load")
        self._patch_function(config, "build_runtime", "config.build_runtime")
        self._patch_function(cli, "run_train", "cli.run_train")
        self._patch_function(cli, "run_estimate", "cli.run_estimate")
        self._patch_function(cli, "run_eval", "cli.run_eval")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------------

    def totals(self, phase):
        """{name: (calls, total ms, self ms)} over the spans of one phase.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child_s = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent, ph) in enumerate(self.spans):
            if ph != phase:
                continue
            acc = out[name]
            acc[0] += 1
            acc[1] += (end - start) * 1e3
            acc[2] += (end - start - child_s[i]) * 1e3
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "phase"],
                       "spans": self.spans}, f)
