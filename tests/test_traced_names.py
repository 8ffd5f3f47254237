"""The benchmark's tracer patches functions by name; each must still exist,
and each must run on the thread that called it."""

import importlib
import importlib.util
import os
import threading
from pathlib import Path

import pytest

from conftest import natural_buf, write_manifest
from spoofsense import audio, cli
from spoofsense.audio import write_wav
from spoofsense.spectral import KINDS

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
)
_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracer)

TRACED_NAMES = [(m, f) for m, funcs in _tracer.TRACED.items() for f in funcs]


@pytest.mark.parametrize("module, function", TRACED_NAMES,
                         ids=["%s.%s" % mf for mf in TRACED_NAMES])
def test_traced_function_exists(module, function):
    mod = importlib.import_module("spoofsense." + module)
    assert callable(getattr(mod, function, None)), "spoofsense.%s.%s" % (module, function)


class _ThreadTracer(_tracer.Tracer):
    """A Tracer that also notes the thread of every traced call."""

    def __init__(self):
        super().__init__()
        self.calls = []  # (name, thread ident)

    def span(self, name, fn, *args, amount=None, **kwargs):
        self.calls.append((name, threading.get_ident()))
        return super().span(name, fn, *args, amount=amount, **kwargs)


def test_traced_calls_stay_on_the_calling_thread(tmp_path, monkeypatch):
    """The tracer keeps one span stack, so its spans nest only if every
    traced function runs on the thread that called extract, block helpers
    or not.  Three rows, so that rows shared between threads would show;
    the 3 s one has ten blocks of frames to share."""
    for m in _tracer.TRACED:
        importlib.import_module("spoofsense." + m)
    monkeypatch.setattr(audio, "_helpers", audio.helper_pool(1))
    rows = []
    for i, dur in enumerate((1.2, 3.0, 0.6)):
        wav = tmp_path / ("u%d.wav" % i)
        write_wav(wav, natural_buf(100 + 40 * i, seed=3 + i, dur=dur))
        rows.append(("u%d" % i, "s", "bonafide", "-", "-", str(wav)))
    write_manifest(tmp_path / "m.tsv", rows)
    tracer = _ThreadTracer()
    tracer.install()
    try:
        for kind in KINDS:
            assert cli.main(["extract", "--manifest", str(tmp_path / "m.tsv"), "--feature",
                             kind, "--out-dir", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    names = {name for name, _ in tracer.calls}
    assert {"f0.estimate_f0", "spectral.spectral_envelope",
            "spectral.band_aperiodicity"} <= names
    assert {ident for _, ident in tracer.calls} == {threading.get_ident()}
    assert len(os.listdir(tmp_path / "out")) == 3 * len(KINDS) == 21
