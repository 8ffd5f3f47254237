"""WAV i/o, resampling, and framing primitives.

All feature code operates on mono float buffers at a single canonical rate
(16 kHz by default, set at load time).  The RIFF codec here is deliberately
minimal: PCM16, PCM24 and float32, plain or WAVE_FORMAT_EXTENSIBLE, 1-2
channels, little-endian, nothing else.
"""

import contextvars
import functools
import os
import struct
import threading
import wave
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import CorruptPayload, MalformedRiff, TruncatedData, UnsupportedEncoding

# held while what is made on first use is made: the block helpers, and each scipy
# module, which two threads importing two of them at once can see half-initialised
FIRST_USE = threading.Lock()

# the sample rates read_wav accepts, and the highest sample_rate RunConfig
# accepts: far above or below them, resample's filter or its output would
# not fit in memory
RATES = range(1000, 768001)

PCM16_SCALE = 32768.0
PCM24_SCALE = 8388608.0  # 2**23
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# bytes 4-15 of every KSDATAFORMAT_SUBTYPE_* GUID; bytes 0-3 hold the format code
_SUBTYPE_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


@dataclass(frozen=True)
class AudioBuffer:
    """Mono signal. samples: 1-D float64, nominally within [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("AudioBuffer wants a 1-D sample array")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", arr)

    def __len__(self):
        return len(self.samples)


def read_wav(path):
    """Parse a RIFF/WAVE file into a mono AudioBuffer.

    Accepts PCM16 and PCM24 (format code 1) and IEEE float32 (code 3), 1 or
    2 channels, at a rate in RATES; stereo is averaged.
    WAVE_FORMAT_EXTENSIBLE (0xFFFE) is read as the PCM or float code its
    sub-format GUID names.  PCM samples are scaled by 1/2**15 or 1/2**23;
    float samples are clipped to [-1, 1], and a NaN or inf among them raises
    CorruptPayload.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12:
        raise MalformedRiff("file too small for a RIFF header")
    if raw[0:4] != b"RIFF":
        raise MalformedRiff("bad RIFF magic %r" % raw[0:4])
    if raw[8:12] != b"WAVE":
        raise MalformedRiff("not a WAVE form")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        cid, size = struct.unpack_from("<4sI", raw, pos)
        body = raw[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            if len(body) < 16:
                raise MalformedRiff("fmt chunk shorter than 16 bytes")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            if fmt[0] == WAVE_FORMAT_EXTENSIBLE:
                fmt = (_sub_format(body),) + fmt[1:]
        elif cid == b"data":
            if len(body) < size:
                raise TruncatedData(
                    "data chunk declares %d bytes, file holds %d" % (size, len(body))
                )
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise MalformedRiff("missing fmt or data chunk")

    code, channels, rate, _byte_rate, _block_align, bits = fmt
    if code == 1:
        if bits not in (16, 24):
            raise UnsupportedEncoding("PCM with %d bits per sample" % bits)
        dtype = "<i2"
    elif code == 3:
        if bits != 32:
            raise UnsupportedEncoding("float with %d bits per sample" % bits)
        dtype = "<f4"
    else:
        raise UnsupportedEncoding("format code %d" % code)
    if channels not in (1, 2):
        raise UnsupportedEncoding("%d channels" % channels)
    if rate <= 0:
        raise MalformedRiff("nonpositive sample rate")
    if rate not in RATES:
        raise UnsupportedEncoding("sample rate %d Hz, outside %d-%d Hz"
                                  % (rate, RATES[0], RATES[-1]))

    data = data[: len(data) - len(data) % (channels * bits // 8)]
    x = _int24(data) if bits == 24 else np.frombuffer(data, dtype=dtype)
    x = x.astype(np.float64)
    if code == 3 and not np.isfinite(x).all():
        first = np.flatnonzero(~np.isfinite(x))[0] // channels
        raise CorruptPayload("non-finite float sample at index %d" % first)
    if channels == 2:
        x = x.reshape(-1, 2).mean(axis=1)
    if code == 1:
        x = x / (PCM16_SCALE if bits == 16 else PCM24_SCALE)
    else:
        x = np.clip(x, -1.0, 1.0)
    return AudioBuffer(samples=x, sample_rate=rate)


def _sub_format(fmt_body):
    """The PCM (1) or float (3) code named by an extensible fmt chunk's GUID."""
    if len(fmt_body) < 40:
        raise MalformedRiff("extensible fmt chunk shorter than 40 bytes")
    guid = fmt_body[24:40]
    (code,) = struct.unpack_from("<I", guid)
    if code not in (1, 3) or guid[4:] != _SUBTYPE_GUID_TAIL:
        raise UnsupportedEncoding("extensible sub-format GUID %s" % guid.hex())
    return code


def _int24(data):
    """Little-endian signed 24-bit samples as int32, via a 4-byte view."""
    b = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3)
    wide = np.zeros((len(b), 4), dtype=np.uint8)
    wide[:, 1:] = b  # sample in the top three bytes; the shift sign-extends
    return wide.view("<i4")[:, 0] >> 8


def write_wav(path, buf):
    """Write a mono PCM16 WAV. Round-trips through read_wav within 1/32768."""
    q = np.clip(np.rint(buf.samples * PCM16_SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(buf.sample_rate)
        w.writeframes(q.tobytes())


def resample(buf, target_rate):
    """Polyphase rational resampling with a Kaiser windowed-sinc filter.

    Cutoff sits at 0.45x the smaller Nyquist so the transition band stays
    clear of the band edge on both up- and downsampling.
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate == buf.sample_rate:
        return buf
    with FIRST_USE:  # scipy.signal is slow to import: load it only for a rate change
        from scipy.signal import resample_poly

    up, down, taps = _resample_filter(buf.sample_rate, target_rate)
    y = resample_poly(buf.samples, up, down, window=taps)
    # the filter can overshoot near sharp edges; keep the buffer contract
    np.clip(y, -1.0, 1.0, out=y)
    return AudioBuffer(samples=y, sample_rate=target_rate)


@functools.lru_cache(maxsize=4)
def _resample_filter(rate, target_rate):
    """(up, down, read-only taps) for rate -> target_rate, designed once per
    process: a rate sharing few factors with the target needs ~10^6 taps."""
    with FIRST_USE:
        from scipy.signal import firwin

    g = gcd(rate, target_rate)
    up, down = target_rate // g, rate // g
    cutoff_hz = 0.45 * (min(rate, target_rate) / 2.0)
    half_len = 10 * max(up, down)
    taps = firwin(
        2 * half_len + 1,
        cutoff_hz,
        fs=rate * up,
        window=("kaiser", 5.0),
    )
    taps.flags.writeable = False
    return up, down, taps


def frame_signal(buf, frame_len, hop):
    """(num_frames, frame_len) read-only view of the samples: frame i starts
    at sample i*hop, and a partial trailing frame is dropped."""
    if frame_len < 1 or hop < 1:
        raise ValueError("frame_len and hop must be >= 1")
    x = buf.samples
    if len(x) < frame_len:
        return np.empty((0, frame_len))
    return np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop]


# rows per block of the frame kernels.  Each block makes tens of numpy calls,
# each a hand-off of the GIL between the threads, so fewer, larger blocks
# pay; at the 16 kHz defaults a block's 864-point F0 buffers take ~880 KB,
# and estimate_f0 timed alike from 128 to 256 rows
BLOCK_ROWS = 128


def by_row_blocks(fn, *arrays):
    """fn applied to row blocks of the arrays (all of one length), its
    results stacked in row order; with no rows, fn of the empty arrays.
    Exact for an fn that treats each row on its own.

    fn of the empty arrays fixes the result's trailing shape and dtype.  The
    rows are cut into the fewest blocks of at most BLOCK_ROWS rows, with
    sizes that differ by at most one (a 257-row utterance is 85/86/86
    rows, not 128/128/1), and run_tasks shares the blocks between the
    calling thread and this process's helper threads from the first block
    on.  Each block writes its own rows of the result, so every row comes
    from the same operations as in a serial loop; if blocks raise, the one
    with the smallest start does, once every started block has ended.
    """
    empty = fn(*(a[:0] for a in arrays))
    n = len(arrays[0])
    if n == 0:
        return empty
    out = np.empty((n,) + empty.shape[1:], empty.dtype)
    count = -(-n // BLOCK_ROWS)
    cuts = [j * n // count for j in range(count + 1)]

    def block(j):
        lo, hi = cuts[j], cuts[j + 1]
        out[lo:hi] = fn(*(a[lo:hi] for a in arrays))

    run_tasks(block, range(count))
    return out


def run_tasks(task, items, threads=None):
    """task(item) for each of the items, shared between the calling thread
    and this process's helper threads, at most `threads` at once if given.

    The helpers are submitted first, so that they work from the first item
    on; then every thread takes items in order from one iterator, so each
    item is handed out once.  A helper runs under a copy of the caller's
    context, so an np.errstate holds there too.  A task that raises stops
    the hand-out; once every task handed out has ended, the failing one
    that comes first among the items raises, as in a serial loop: every
    item before it was handed out.

    A task that can run on a helper must not call a function that
    perfbench's tracer wraps, whose spans nest only on the calling thread;
    with threads=1, every task runs on the calling thread.
    """
    pending, lock, errors = iter(enumerate(items)), threading.Lock(), []

    def drain():
        while True:
            with lock:
                nxt = None if errors else next(pending, None)
            if nxt is None:
                return
            j, item = nxt
            try:
                task(item)
            except BaseException as e:
                with lock:
                    errors.append((j, e))

    count, pool = _block_helpers()
    if threads is not None:
        count = min(count, threads - 1)
    helpers = [pool.submit(contextvars.copy_context().run, drain)
               for _ in range(min(count, len(items) - 1))]
    drain()
    for h in helpers:
        h.cancel() or h.result()  # a drain still queued has nothing left to hand out
    if errors:
        raise min(errors, key=lambda err: err[0])[1]


def helper_pool(count):
    """(count, pool): a ThreadPoolExecutor of `count` threads, or None
    for 0, that run_tasks shares tasks with beside its calling thread.
    numpy's FFTs and ufunc loops release the GIL, so a helper on another
    core computes while the caller does.  The threads start on the first
    call with tasks to share and then wait, idle, for the next one."""
    from concurrent.futures import ThreadPoolExecutor  # slow to import: not with this module

    pool = ThreadPoolExecutor(count, thread_name_prefix="spoofsense-blocks") if count else None
    return count, pool


def _cores():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_helpers = None  # this process's helper_pool, made on first use


def _block_helpers():
    """This process's helper_pool, one thread per core beyond the caller's,
    made once however many threads ask for it at once."""
    global _helpers
    with FIRST_USE:
        if _helpers is None:
            _helpers = helper_pool(_cores() - 1)
    return _helpers


_WINDOWS = {
    "hann": np.hanning,      # symmetric; endpoints are exactly 0
    "hamming": np.hamming,
    "rect": np.ones,
}


def window_coeffs(kind, length):
    try:
        make = _WINDOWS[kind]
    except KeyError:
        raise ValueError("unknown window kind %r" % kind) from None
    return make(length)
