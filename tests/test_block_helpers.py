"""audio.by_row_blocks and audio.run_tasks on the calling thread and its
block helpers, the threads of a ThreadPoolExecutor.

serial_by_row_blocks is an earlier by_row_blocks, verbatim: every block on
the calling thread, in row order, BLOCK_ROWS rows at a time.  Helper
threads must change nothing a caller can see: the frame kernels give the
same bytes with 0, 1 or 3 helpers, each row block and each aperiodicity
band runs once, the first failing one raises, and only once no helper runs
a task any more, and an np.errstate of the caller holds on every thread.
A helper starts on a task while the caller is still on its first, and a
task may run tasks of its own; `extract --jobs 2`, whose rows are such
tasks, writes the bytes of --jobs 1 in an interpreter that loads scipy
on two threads at once.
"""

import contextlib
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import natural_buf, write_manifest
from spoofsense import audio, f0 as f0_module, spectral
from spoofsense.audio import BLOCK_ROWS, by_row_blocks, helper_pool, write_wav
from spoofsense.cli import main
from spoofsense.errors import InputTooShort
from spoofsense.f0 import F0Config, F0Contour, estimate_f0
from spoofsense.spectral import (
    ApConfig,
    EnvelopeConfig,
    band_aperiodicity,
    band_edges,
    spectral_envelope,
)
from test_kernel_oracles import _framed_buf

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
B = BLOCK_ROWS


def serial_by_row_blocks(fn, *arrays):
    """fn applied to successive BLOCK_ROWS-row slices of the arrays (all of
    one length), its results stacked in row order; with no rows, fn of the
    empty arrays.  Exact for an fn that treats each row on its own."""
    first = fn(*(a[:BLOCK_ROWS] for a in arrays))
    n = len(arrays[0])
    if n <= BLOCK_ROWS:
        return first
    out = np.empty((n,) + first.shape[1:], first.dtype)
    out[:BLOCK_ROWS] = first
    for i in range(BLOCK_ROWS, n, BLOCK_ROWS):
        out[i : i + BLOCK_ROWS] = fn(*(a[i : i + BLOCK_ROWS] for a in arrays))
    return out


def serial_run_tasks(task, items):
    for item in items:
        task(item)


# made once: their threads, once started, stay for the whole test process
POOLS = {k: helper_pool(k) for k in (0, 1, 3)}


@contextlib.contextmanager
def helpers(k):
    """by_row_blocks and run_tasks with k helper threads, however many cores there are."""
    saved = audio._helpers
    audio._helpers = POOLS[k]
    try:
        yield
    finally:
        audio._helpers = saved


@contextlib.contextmanager
def serial_kernels():
    saved = f0_module.by_row_blocks, spectral.by_row_blocks, spectral.run_tasks
    f0_module.by_row_blocks = spectral.by_row_blocks = serial_by_row_blocks
    spectral.run_tasks = serial_run_tasks
    try:
        yield
    finally:
        f0_module.by_row_blocks, spectral.by_row_blocks, spectral.run_tasks = saved


def _outcome(fn, *args):
    """fn(*args)'s array as (dtype, shape, bytes), or its exception's type and text."""
    try:
        a = fn(*args)
    except Exception as e:
        return type(e), str(e)
    if not isinstance(a, np.ndarray):  # a FeatureMatrix or an F0Contour
        a = getattr(a, "data", getattr(a, "values", None))
    return a.dtype, a.shape, a.tobytes()


def _kernels(buf, cfg, env_cfg):
    try:
        c = estimate_f0(buf, cfg)
    except Exception:
        c = F0Contour(np.zeros(0), hop=cfg.hop, floor=cfg.floor, ceil=cfg.ceil)
    return [_outcome(estimate_f0, buf, cfg),
            _outcome(spectral_envelope, buf, c, env_cfg),
            _outcome(band_aperiodicity, buf, c)]


# ------------------------------------------------ the kernels, byte for byte


@given(
    n_frames=st.integers(0, 3 * B + 5),
    k=st.sampled_from([0, 1, 3]),
    sr=st.sampled_from([16000, 22050]),
    floor=st.floats(66.0, 150.0),
    f0=st.floats(80.0, 300.0),
    seed=st.integers(0, 2**16),
    gap=st.tuples(st.integers(0, 3 * B), st.integers(0, B + 10)),
)
@settings(max_examples=40, deadline=None)
def test_kernels_match_serial_blocks(n_frames, k, sr, floor, f0, seed, gap):
    cfg = F0Config(floor=floor)
    silent = [(gap[0], gap[0] + gap[1])]
    buf = _framed_buf(n_frames, cfg, sr=sr, f0=f0, seed=seed, silent=silent)
    env_cfg = EnvelopeConfig(n_fft=2048)
    with serial_kernels():
        want = _kernels(buf, cfg, env_cfg)
    with helpers(k):
        got = _kernels(buf, cfg, env_cfg)
    assert got == want
    if n_frames:
        assert want[0][1] == (n_frames,)
    else:
        assert want[0][0] is InputTooShort


@pytest.mark.parametrize("k", [1, 3])
def test_empty_lag_band_raises_from_last_block(k):
    # kmin 33 > kmax 32 at 16 kHz: only the frames of the last block are live
    cfg = F0Config(floor=485.0, ceil=490.0)
    n = 3 * B + 20
    buf = _framed_buf(n, cfg, silent=[(0, n - 10)])
    with serial_kernels():
        want = _outcome(estimate_f0, buf, cfg)
    with helpers(k):
        assert _outcome(estimate_f0, buf, cfg) == want
    assert want[0] is ValueError


# ------------------------------------------------------------- the hand-out


class Failed(Exception):
    pass


class Recorder:
    """Logs the start and end of each task, with its thread; a task can be
    made slow, or made to raise."""

    def __init__(self):
        self.log, self.lock = [], threading.Lock()

    def __call__(self, key, slow=False, error=None):
        with self.lock:
            self.log.append(("start", key, threading.get_ident()))
        try:
            time.sleep(0.002 if slow else 0.0)
            if error is not None:
                raise error
        finally:
            with self.lock:
                self.log.append(("end", key, threading.get_ident()))

    def started(self):
        """The keys of the tasks that started, each checked to have ended
        and to have started once."""
        ran = [key for what, key, _ in self.log if what == "start"]
        assert sorted(key for what, key, _ in self.log if what == "end") == sorted(ran)
        assert len(set(ran)) == len(ran)
        return ran


@contextlib.contextmanager
def switching_often():
    """Threads switch every microsecond, so that a lost hand-out would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@given(
    n=st.integers(0, 10 * B + 5),
    k=st.sampled_from([0, 1, 3]),
    fail=st.sets(st.integers(0, 10 * B + 5), max_size=4),
    slow=st.sets(st.integers(0, 10 * B + 5), max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_run_hands_out_each_start_once(n, k, fail, slow):
    """Each row is computed once, in the fewest blocks of at most BLOCK_ROWS
    rows, of sizes that differ by at most one; if blocks fail, the first
    failing row's error raises once every started block has ended."""
    rows = np.arange(n, dtype=np.float64)
    record = Recorder()

    def fn(r):
        if len(r):  # the empty call that fixes the result's shape is not a block
            lo, hi = int(r[0]), int(r[-1]) + 1
            failing = sorted(fail.intersection(range(lo, hi)))
            record((lo, hi), slow=bool(slow.intersection(range(lo, hi))),
                   error=Failed(failing[0]) if failing else None)
        return r

    first_failure = min(fail & set(range(n)), default=None)
    with helpers(k), switching_often():
        if first_failure is None:
            assert by_row_blocks(fn, rows).tobytes() == rows.tobytes()
        else:
            with pytest.raises(Failed) as e:
                by_row_blocks(fn, rows)
            assert e.value.args == (first_failure,)
    # done when by_row_blocks returns or raises: every block that started has ended
    blocks = sorted(record.started())
    sizes = [hi - lo for lo, hi in blocks]
    assert all(0 < size <= B for size in sizes)
    assert max(sizes, default=0) - min(sizes, default=0) <= 1
    if first_failure is None:  # each row computed once, in the fewest blocks
        assert [i for lo, hi in blocks for i in range(lo, hi)] == list(range(n))
        assert len(blocks) == -(-n // B)
    else:  # every row before the first failing one was handed out
        covered = set().union(*(range(lo, hi) for lo, hi in blocks))
        assert set(range(first_failure + 1)) <= covered


@given(
    n=st.integers(0, 5 * B + 5),
    k=st.sampled_from([0, 1, 3]),
    fail=st.sets(st.integers(0, 5 * B + 5), max_size=3),
    dtype=st.sampled_from([np.float64, np.float32]),
)
@settings(max_examples=60, deadline=None)
def test_by_row_blocks_matches_serial(n, k, fail, dtype):
    """The result's bytes, shape and dtype, or the first failing row's error:
    a block raises for its first failing row, so the serial loop raises for
    the first failing row of all."""
    rows = np.arange(n, dtype=np.float64)
    cols = np.arange(3.0)

    def fn(r):
        failing = sorted(fail.intersection(r.astype(int).tolist()))
        if failing:
            raise Failed(failing[0])
        return (np.sqrt(r)[:, None] * cols).astype(dtype)

    want = _outcome(serial_by_row_blocks, fn, rows)
    with helpers(k):
        got = _outcome(by_row_blocks, fn, rows)
    assert got == want
    assert got[0] == (Failed if fail & set(range(n)) else np.dtype(dtype))


def _voice(n_bands):
    buf = natural_buf(120, seed=7, dur=0.4)
    return buf, estimate_f0(buf), ApConfig(n_bands=n_bands)


@contextlib.contextmanager
def band_tasks(wrap):
    """band_aperiodicity with each band task b run as wrap(task, b); yields
    the list of each call's band order."""
    orders, real = [], spectral.run_tasks

    def run(task, items):
        orders.append(list(items))
        real(lambda b: wrap(task, b), orders[-1])

    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectral, "run_tasks", run)
        yield orders


@given(
    n_bands=st.integers(1, 7),
    k=st.sampled_from([0, 1, 3]),
    fail=st.sets(st.integers(0, 6), max_size=3),
    slow=st.sets(st.integers(0, 6)),
)
@settings(max_examples=30, deadline=None)
def test_band_tasks_hand_out_each_band_once(n_bands, k, fail, slow):
    """Each band is one task, handed out once, widest first; if bands fail,
    the first failing one in that order raises once every started band has
    ended, and without failures the result is the serial one, byte for byte."""
    buf, c, cfg = _voice(n_bands)
    with serial_kernels():
        want = _outcome(band_aperiodicity, buf, c, cfg)
    record = Recorder()

    def wrap(task, b):
        record(b, slow=b in slow, error=Failed(b) if b in fail else None)
        task(b)

    with band_tasks(wrap) as orders, helpers(k), switching_often():
        got = _outcome(band_aperiodicity, buf, c, cfg)
    (order,) = orders
    freqs = np.arange(cfg.n_fft // 2 + 1) * (buf.sample_rate / cfg.n_fft)
    width = np.histogram(freqs, band_edges(n_bands, buf.sample_rate / 2.0))[0]
    assert sorted(order) == list(range(n_bands))
    assert list(width[order]) == sorted(width, reverse=True)
    ran = record.started()
    failing = [b for b in order if b in fail]
    if failing:
        assert got == (Failed, str(failing[0]))
        assert set(order[: order.index(failing[0]) + 1]) <= set(ran)
    else:
        assert got == want and sorted(ran) == list(range(n_bands))


class Overflow:
    """A task's probe: the first task on the thread named `on` overflows
    (under the caller's np.errstate), and every other task waits for it."""

    def __init__(self, on):
        self.main, self.on = threading.get_ident(), on
        self.done, self.threads = threading.Event(), []

    def __call__(self, x):
        on_caller = threading.get_ident() == self.main
        if on_caller != (self.on == "caller") or self.threads:
            assert self.done.wait(10.0)
            return x * 1.0
        self.threads.append(threading.get_ident())
        try:
            return x * 1e308
        finally:
            self.done.set()

    def check(self):
        assert len(self.threads) == 1
        assert (self.threads[0] == self.main) == (self.on == "caller")


@pytest.mark.parametrize("overflow_on", ["caller", "helper"])
@pytest.mark.parametrize("over", ["raise", "ignore"])
def test_errstate_holds_on_every_thread(overflow_on, over):
    """Three blocks shared by the caller and one helper: the block on the
    thread named overflow_on overflows, the others wait for it."""
    overflow = Overflow(overflow_on)

    def fn(r):
        return overflow(r) if len(r) else r

    rows = np.arange(3 * B, dtype=np.float64) + 2.0
    with helpers(1), np.errstate(over=over):
        if over == "raise":
            with pytest.raises(FloatingPointError):
                by_row_blocks(fn, rows)
        else:
            assert np.isinf(by_row_blocks(fn, rows)).sum() == B
    overflow.check()


@pytest.mark.parametrize("overflow_on", ["caller", "helper"])
@pytest.mark.parametrize("over", ["raise", "ignore"])
def test_band_errstate_holds_on_every_thread(overflow_on, over):
    overflow = Overflow(overflow_on)

    def wrap(task, b):
        overflow(np.full(3, 2.0))
        task(b)

    buf, c, cfg = _voice(5)
    with band_tasks(wrap), helpers(1), np.errstate(over=over):
        if over == "raise":
            with pytest.raises(FloatingPointError):
                band_aperiodicity(buf, c, cfg)
        else:
            assert band_aperiodicity(buf, c, cfg).data.shape == (len(c), 5)
    overflow.check()


class Overlap:
    """A task's probe: the caller's first task waits until a helper is in a
    task, and a helper's task until the caller has waited, so that the
    caller takes a task whoever starts first."""

    def __init__(self):
        self.main = threading.get_ident()
        self.helper_busy, self.caller_waited = threading.Event(), threading.Event()
        self.waits = []

    def __call__(self):
        if threading.get_ident() != self.main:
            self.helper_busy.set()
            self.caller_waited.wait(10.0)
        elif not self.waits:
            self.waits.append(self.helper_busy.wait(10.0))
            self.caller_waited.set()


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize(
    "n, rows",
    [pytest.param(n, rows, id=str(n)) for rows in (B // 2, B) for n in (rows + 1, 2 * rows, 5 * rows)],
)
def test_helper_starts_with_the_callers_first_block(k, n, rows, monkeypatch):
    """With blocks of BLOCK_ROWS rows and of half that, in 2 to 5 blocks."""
    monkeypatch.setattr(audio, "BLOCK_ROWS", rows)
    overlap = Overlap()

    def fn(r):
        if len(r):
            overlap()
        return r

    rows = np.arange(n, dtype=np.float64)
    with helpers(k):
        assert by_row_blocks(fn, rows).tobytes() == rows.tobytes()
    assert overlap.waits == [True]


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n_bands", [2, 5])
def test_helper_starts_with_the_callers_first_band(k, n_bands):
    overlap = Overlap()

    def wrap(task, b):
        overlap()
        task(b)

    buf, c, cfg = _voice(n_bands)
    with serial_kernels():
        want = band_aperiodicity(buf, c, cfg).data
    with band_tasks(wrap), helpers(k):
        assert band_aperiodicity(buf, c, cfg).data.tobytes() == want.tobytes()
    assert overlap.waits == [True]


def test_helpers_are_made_once(monkeypatch):
    """Threads that ask for the helpers at once, as a program that runs the
    kernels on threads of its own may, all get the one pool."""
    made, barrier = [], threading.Barrier(4)

    def slow_pool(count):
        made.append(count)
        time.sleep(0.05)  # so that every thread asks while the pool is made
        return count, None

    monkeypatch.setattr(audio, "helper_pool", slow_pool)
    monkeypatch.setattr(audio, "_helpers", None)
    got = []

    def ask():
        barrier.wait(10.0)
        got.append(audio._block_helpers())

    threads = [threading.Thread(target=ask) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10.0)
    assert not any(t.is_alive() for t in threads)
    assert made == [audio._cores() - 1] and len(got) == 4
    assert all(g is got[0] for g in got)


def _threads():
    return set(threading.enumerate())


def test_repeated_calls_start_no_new_threads(monkeypatch):
    """The pool is made once per process: its two threads start in the first
    call with blocks to share, and further calls run on them."""
    monkeypatch.setattr(audio, "_cores", lambda: 3)
    monkeypatch.setattr(audio, "_helpers", None)
    rows = np.arange(10 * B, dtype=np.float64)
    seen, barrier = set(), threading.Barrier(3)

    def first_call(r):  # each thread holds its first block until all three hold one
        if len(r) and threading.get_ident() not in seen:
            seen.add(threading.get_ident())
            barrier.wait(10.0)
        return np.sqrt(r)

    before = _threads()
    assert by_row_blocks(first_call, rows).tobytes() == np.sqrt(rows).tobytes()
    after_first = _threads()
    assert len(after_first - before) == 2 and len(seen) == 3
    for _ in range(20):
        assert by_row_blocks(np.sqrt, rows).tobytes() == np.sqrt(rows).tobytes()
    assert _threads() == after_first
    audio._helpers[1].shutdown()


def test_one_core_starts_no_thread(monkeypatch):
    monkeypatch.setattr(audio, "_cores", lambda: 1)
    monkeypatch.setattr(audio, "_helpers", None)
    rows = np.arange(5 * B + 3, dtype=np.float64)
    callers = set()

    def fn(r):
        callers.add(threading.get_ident())
        return np.sqrt(r)[:, None] * np.arange(3.0)

    before = _threads()
    got = _outcome(by_row_blocks, fn, rows)
    assert got == _outcome(serial_by_row_blocks, fn, rows)
    assert _threads() == before and callers == {threading.get_ident()}
    assert audio._helpers == (0, None)


# ------------------------------------------------------------ a cold start

COLD_SCRIPT = """
import sys, threading
import numpy as np
from spoofsense import audio
from spoofsense.audio import BLOCK_ROWS, by_row_blocks
from spoofsense.cli import main

audio._helpers = audio.helper_pool(1)  # one helper, however many cores
rows = np.arange(3 * BLOCK_ROWS, dtype=np.float64)
assert by_row_blocks(np.sqrt, rows).tobytes() == np.sqrt(rows).tobytes()
assert threading.active_count() > 1 and "scipy" not in sys.modules
manifest, kind, out = sys.argv[1:]
args = ["extract", "--manifest", manifest, "--feature", kind, "--out-dir", out, "--jobs", "2"]
assert main(args) == 0, args
"""


def _run_child(script, *args, timeout):
    """Run script in a new interpreter; one that has not ended after timeout
    seconds is killed, and the test fails with TimeoutExpired."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("SPOOFSENSE_CONFIG", None)
    p = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                       capture_output=True, text=True, timeout=timeout)
    assert p.returncode == 0, p.stderr


def test_extract_jobs_after_helpers_started(tmp_path):
    """Helpers running, then `extract --jobs 2` in an interpreter that has
    not yet loaded scipy, once per kind: the calling thread and the helper
    run a row each and load scipy's modules at once (scipy.signal to
    resample a row, scipy.fft to track F0 or take the MFCC's DCT of
    another), and must write the bytes of --jobs 1."""
    rows = []
    for i, sr in enumerate((16000, 22050, 44100, 16000)):
        u = "u%d" % i
        write_wav(tmp_path / ("%s.wav" % u), natural_buf(110 + 40 * i, seed=i, dur=0.5, sr=sr))
        rows.append((u, "s%d" % i, "bonafide", "-", "-", str(tmp_path / ("%s.wav" % u))))
    write_manifest(tmp_path / "m.tsv", rows)
    for kind in spectral.KINDS:
        _run_child(COLD_SCRIPT, tmp_path / "m.tsv", kind, tmp_path / "out2", timeout=120)
        assert main(["extract", "--manifest", str(tmp_path / "m.tsv"), "--feature", kind,
                     "--out-dir", str(tmp_path / "out1"), "--jobs", "1"]) == 0
    names = sorted(os.listdir(tmp_path / "out1"))
    assert len(names) == 4 * len(spectral.KINDS) and names == sorted(os.listdir(tmp_path / "out2"))
    for name in names:
        assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()


NESTED_SCRIPT = """
import time
import numpy as np
from spoofsense import audio
from spoofsense.audio import BLOCK_ROWS, by_row_blocks, run_tasks

audio._helpers = audio.helper_pool(1)  # one helper, however many cores
rows = np.arange(3 * BLOCK_ROWS, dtype=np.float64)  # three blocks
got = {}

def task(i):
    time.sleep(0.05)  # so that the helper is inside a task too
    got[i] = by_row_blocks(lambda r: np.sqrt(r + i)[:, None] * [1.0, -1.0], rows)

run_tasks(task, range(4))
for i in range(4):
    assert got[i].tobytes() == (np.sqrt(rows + i)[:, None] * [1.0, -1.0]).tobytes(), i
"""


def test_tasks_may_run_tasks():
    """A task that calls by_row_blocks, on the caller and on the one helper:
    each inner run_tasks submits a drain that queues behind the helper's
    own task, and must not wait for it once the caller's drain has run
    every block."""
    _run_child(NESTED_SCRIPT, timeout=60)
