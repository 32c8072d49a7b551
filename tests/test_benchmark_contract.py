"""The benchmark in ``perfbench/`` wraps posediff callables by name from outside.

This runs a tiny train step and an H=2/M=1 estimate under its span tracer
(``tracing.Tracer``) and op counter (``workload.Ops``), so renaming or
deleting a name the benchmark patches or reads fails here, not in a
benchmark run. Its op counter and clock are single-threaded, so the
program may enter the wrappers it puts on ``Denoiser.denoise`` and
``cli.estimate_single`` only from the thread that called ``run_estimate``.
"""

import importlib
import os
import threading

import pytest

from posediff import cli, denoiser, sampler, training
from posediff.data import save_dataset, synth_generate

from test_cli import tiny_cfg
from test_denoiser import pin_cpus

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_benchmark_hooks_attach_and_detach(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    workload = importlib.import_module("workload")
    originals = (cli.run_train, cli.estimate_single, training.Trainer.train_epoch,
                 denoiser.Denoiser.mhsa_block, denoiser.Denoiser.denoise)

    clock = workload.Clock(8 * 17, 32, nominal_ms=12.0)
    clock.point()
    ops, tracer = workload.Ops(clock), tracing.Tracer(clock.now)
    ops.install()
    tracer.install()
    try:
        data = tmp_path / "d.ptc"
        save_dataset(data, synth_generate(4, 8, 17, seed=0))
        ckpt, _ = cli.run_train(tiny_cfg(), data, tmp_path / "run", max_steps=1)
        pred = cli.run_estimate(ckpt, data, tmp_path / "p.ptc", hypotheses=2, iterations=1)
        cli.run_eval(pred, data, tmp_path / "eval")
    finally:
        tracer.uninstall()
        ops.uninstall()

    calls = {name: total[0] for name, total in tracer.totals("setup").items()}
    for name in ("autodiff.backward", "denoiser.denoise", "denoiser.embed_input",
                 "denoiser.timestamp_embed", "denoiser.spatial_block",
                 "denoiser.temporal_block", "denoiser.cross_attention", "denoiser.pts",
                 "denoiser.head", "denoiser.linear", "training.adamw_step",
                 "training.train_epoch", "training.checkpoint_write", "prompts.assemble",
                 "diffusion.forward_diffuse", "sampler.ddim_loop", "sampler.jpma",
                 "sampler.reproject", "metrics.p_mpjpe", "metrics.mpjpe", "container.write",
                 "container.read", "data.load", "config.build_runtime", "cli.run_train",
                 "cli.run_estimate", "cli.run_eval"):
        assert calls.get(name, 0) >= 1, name
    # one optimizer step, then one op per record through cli.estimate_single
    assert (ops.attempted, ops.failed) == (1 + 4, 0)
    assert [steps for _, _, steps in ops.spans] == [1, 1, 1, 1, 1]
    assert ops.backward_calls == 1
    ratios = tracer.samples[("setup", "hypotheses_used_ratio")]
    assert len(ratios) == 4 and all(0.0 < r <= 1.0 for r in ratios)

    assert (cli.run_train, cli.estimate_single, training.Trainer.train_epoch,
            denoiser.Denoiser.mhsa_block, denoiser.Denoiser.denoise) == originals
    assert cli.estimate_single is sampler.estimate_single


@pytest.fixture
def estimate_inputs(tmp_path):
    data = tmp_path / "d.ptc"
    save_dataset(data, synth_generate(2, 8, 17, seed=0))
    ckpt, _ = cli.run_train(tiny_cfg(), data, tmp_path / "run", max_steps=1)
    return ckpt, data


def test_patched_names_run_on_the_calling_thread(estimate_inputs, tmp_path, monkeypatch):
    ckpt, data = estimate_inputs
    threads = {"denoise": set(), "estimate_single": set(), "forward": set()}

    def spy(key, fn):
        def wrapper(*args, **kwargs):
            threads[key].add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    Den = denoiser.Denoiser
    monkeypatch.setattr(Den, "denoise", spy("denoise", Den.denoise))
    monkeypatch.setattr(Den, "_forward", spy("forward", Den._forward))
    monkeypatch.setattr(cli, "estimate_single", spy("estimate_single", cli.estimate_single))
    monkeypatch.setattr(denoiser, "PARALLEL_MIN_ELEMENTS", 0)
    pin_cpus(monkeypatch, 2)
    cli.run_estimate(ckpt, data, tmp_path / "p.ptc", hypotheses=3, iterations=2)

    caller = {threading.get_ident()}
    assert threads["denoise"] == caller
    assert threads["estimate_single"] == caller
    assert threads["forward"] - caller  # the pool ran the forwards


@pytest.mark.parametrize("threads, H, max_workers", [(2, 3, 2), (10**6, 3, 3)])
def test_pool_size_is_threads_capped_by_hypotheses(estimate_inputs, tmp_path, monkeypatch,
                                                   threads, H, max_workers):
    ckpt, data = estimate_inputs
    pools = []

    class InlinePool:  # records its width and starts no thread
        def __init__(self, max_workers, initializer):
            pools.append(max_workers)
            self._max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *items):
            return map(fn, *items)

    monkeypatch.setattr(denoiser, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(denoiser, "PARALLEL_MIN_ELEMENTS", 0)
    pin_cpus(monkeypatch, threads)
    cli.run_estimate(ckpt, data, tmp_path / "p.ptc", hypotheses=H, iterations=2)
    # one pool for the whole run: both DDIM steps of each of the 2 records
    assert pools == [max_workers]
