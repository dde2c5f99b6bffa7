"""Compiled kernels, built on first use and loaded with :mod:`ctypes`.

One kernel today: :func:`agent_job` runs single agent-market
replications in C for :func:`repro.perf.market.batch_agent_run_replications`.

* **Build.** The C source lives in this module (:data:`SOURCE`).  On
  first use the system ``cc`` compiles it with :data:`CFLAGS` and
  links numpy's shipped ``numpy/random/lib/libnpyrandom.a``.  The
  shared object is cached as ``$XDG_CACHE_HOME/repro/kernels``
  (default ``~/.cache/repro/kernels``) under a sha256 of the source,
  the flags and ``numpy.__version__``: one compile per cache, written
  to a temporary file and ``os.replace``-d into place so concurrent
  builders never see a partial file.  Compiler output is captured and
  dropped.
* **Draws.** The kernel draws through the generator's own ``bitgen_t``
  (``gen.bit_generator.ctypes.bit_generator``): ``next_double`` is
  ``Generator.random()`` and numpy's ``random_standard_exponential``
  is ``Generator.standard_exponential()``, so a replication consumes
  its stream draw for draw and leaves the generator where the numpy
  path leaves it.  ``-ffp-contract=off`` keeps every ``a + b * c`` a
  rounded multiply then a rounded add, as in Python; no
  ``-ffast-math``.  Each call into C holds ``gen.bit_generator.lock``.
* **Fallback.** No compiler, no ``libnpyrandom.a``, a failed build, a
  cached file that will not load (rebuilt once), or a kernel whose
  draws disagree with numpy's on a fixed probe: :func:`agent_kernel`
  returns ``None`` and callers keep their numpy path.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "CFLAGS",
    "SOURCE",
    "AgentColumns",
    "AgentJob",
    "agent_job",
    "agent_kernel",
    "kernel_path",
]

#: Compiler flags.  ``-ffp-contract=off`` forbids fused multiply-adds,
#: which round once where Python rounds twice.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

/* numpy/random/bitgen.h */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* libnpyrandom.a: the ziggurat behind Generator.standard_exponential(). */
extern double random_standard_exponential(bitgen_t *bitgen_state);

typedef struct {
    double *data;
    int64_t len;
    int64_t cap;
} repro_dbuf;

enum { REPRO_OK = 0, REPRO_OVER_TIME = 1, REPRO_NO_MEMORY = 2 };

void repro_dbuf_free(repro_dbuf *buf)
{
    free(buf->data);
    buf->data = NULL;
    buf->len = buf->cap = 0;
}

static int dbuf_push(repro_dbuf *buf, double x)
{
    if (buf->len == buf->cap) {
        int64_t cap = buf->cap ? 2 * buf->cap : 256;
        double *data = realloc(buf->data, (size_t)cap * sizeof(double));
        if (data == NULL)
            return 0;
        buf->data = data;
        buf->cap = cap;
    }
    buf->data[buf->len++] = x;
    return 1;
}

/* Alternating standard_exponential() / random() draws: the load-time
   probe compares them with numpy's own. */
void repro_probe_draws(bitgen_t *bg, int64_t pairs, double *out)
{
    for (int64_t i = 0; i < pairs; i++) {
        out[2 * i] = random_standard_exponential(bg);
        out[2 * i + 1] = bg->next_double(bg->state);
    }
}

/* In-flight completions: a binary min-heap on (time, seq). */
#define HEAP_BEFORE(t1, q1, t2, q2) ((t1) < (t2) || ((t1) == (t2) && (q1) < (q2)))

static void heap_push(double *ht, int64_t *hq, int64_t *hs, int64_t *hn,
                      double t, int64_t q, int64_t s)
{
    int64_t i = (*hn)++;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (HEAP_BEFORE(ht[p], hq[p], t, q))
            break;
        ht[i] = ht[p];
        hq[i] = hq[p];
        hs[i] = hs[p];
        i = p;
    }
    ht[i] = t;
    hq[i] = q;
    hs[i] = s;
}

static void heap_pop(double *ht, int64_t *hq, int64_t *hs, int64_t *hn)
{
    int64_t n = --(*hn);
    double t = ht[n];
    int64_t q = hq[n], s = hs[n], i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && HEAP_BEFORE(ht[c + 1], hq[c + 1], ht[c], hq[c]))
            c++;
        if (HEAP_BEFORE(t, q, ht[c], hq[c]))
            break;
        ht[i] = ht[c];
        hq[i] = hq[c];
        hs[i] = hs[c];
        i = c;
    }
    ht[i] = t;
    hq[i] = q;
    hs[i] = s;
}

/* One agent-market replication: the per-replication body of the numpy
   lock-step loop in repro.perf.market, draw for draw.

   ji: greedy, n, T, keep, reps[n], off[n + 1], price[T]
   jd: leave_weight, inv_lambda, t0, max_sim_time, inv_proc[n], val[T]
       (order j's repetition r is entry off[j] + r of price and val)
   oi: workers, slot_cnt, n_comp, 0, slot_j[T], slot_rep[T],
       slot_price[T], comp_order[T], next_rep[n], hq[T], hs[T]
   od: pub_t[T], acc_t[T], com_t[T], per_atomic[n], slot_val[T], ht[T]
   Only slot_j, per_atomic and the three counts are written unless
   keep is set; arrivals collects arrival times then. */
int repro_agent_replication(bitgen_t *bg, const int64_t *ji,
                            const double *jd, int64_t *oi, double *od,
                            repro_dbuf *arrivals)
{
    const int64_t greedy = ji[0], n = ji[1], T = ji[2], keep = ji[3];
    const int64_t *reps = ji + 4, *off = reps + n, *price = off + n + 1;
    const double leave_weight = jd[0], inv_lambda = jd[1], t0 = jd[2];
    const double max_sim_time = jd[3];
    const double *inv_proc = jd + 4, *val = inv_proc + n;
    int64_t *slot_j = oi + 4, *slot_rep = slot_j + T;
    int64_t *slot_price = slot_rep + T, *comp_order = slot_price + T;
    int64_t *next_rep = comp_order + T, *hq = next_rep + n, *hs = hq + T;
    double *pub_t = od, *acc_t = pub_t + T, *com_t = acc_t + T;
    double *per_atomic = com_t + T, *slot_val = per_atomic + n;
    double *ht = slot_val + T;

    int64_t slot_cnt = n, open_cnt = n, remaining = T, workers = 0;
    int64_t n_comp = 0, hn = 0, seq = 1, arr_seq = 0;
    int status = REPRO_OK;

    for (int64_t j = 0; j < n; j++) {
        slot_j[j] = j;
        slot_val[j] = val[off[j]];
        next_rep[j] = 1;
        per_atomic[j] = 0.0;
        if (keep) {
            slot_rep[j] = 0;
            slot_price[j] = price[off[j]];
            pub_t[j] = t0;
            acc_t[j] = 0.0;
            com_t[j] = 0.0;
        }
    }
    double next_arr = t0 + random_standard_exponential(bg) * inv_lambda;

    for (;;) {
        /* Completions up to the pending arrival, in (time, seq) order. */
        while (hn > 0) {
            double t = ht[0];
            if (HEAP_BEFORE(next_arr, arr_seq, t, hq[0]))
                break;
            if (t > max_sim_time) {
                status = REPRO_OVER_TIME;
                goto out;
            }
            int64_t s = hs[0];
            heap_pop(ht, hq, hs, &hn);
            int64_t j = slot_j[s];
            if (keep) {
                com_t[s] = t;
                comp_order[n_comp++] = s;
            }
            int64_t nr = next_rep[j];
            if (nr < reps[j]) {
                /* Publish the next repetition at the completion time. */
                int64_t s2 = slot_cnt++;
                next_rep[j] = nr + 1;
                slot_j[s2] = j;
                slot_val[s2] = val[off[j] + nr];
                open_cnt++;
                if (keep) {
                    slot_rep[s2] = nr;
                    slot_price[s2] = price[off[j] + nr];
                    pub_t[s2] = t;
                    acc_t[s2] = 0.0;
                    com_t[s2] = 0.0;
                }
            } else {
                per_atomic[j] = t;
            }
            if (--remaining == 0)
                goto out;
        }
        /* The worker arrival. */
        double now = next_arr;
        if (now > max_sim_time) {
            status = REPRO_OVER_TIME;
            goto out;
        }
        if (keep && !dbuf_push(arrivals, now)) {
            status = REPRO_NO_MEMORY;
            goto out;
        }
        arr_seq = seq++;
        next_arr = now + random_standard_exponential(bg) * inv_lambda;
        if (open_cnt == 0)
            continue;
        int64_t pick = 0;
        if (greedy) {
            /* First maximum: ties go to the earliest publish slot. */
            double best = slot_val[0];
            for (int64_t i = 1; i < slot_cnt; i++) {
                if (slot_val[i] > best) {
                    best = slot_val[i];
                    pick = i;
                }
            }
        } else {
            /* Sequential prefix sums, as numpy's cumsum adds them; the
               worker leaves iff u >= the task total, otherwise takes
               the first slot whose prefix sum exceeds u. */
            double task_tot = slot_val[0];
            for (int64_t i = 1; i < slot_cnt; i++)
                task_tot += slot_val[i];
            double u = bg->next_double(bg->state) * (task_tot + leave_weight);
            if (!(u < task_tot))
                continue;
            double cs = slot_val[0];
            while (!(cs > u) && pick + 1 < slot_cnt)
                cs += slot_val[++pick];
        }
        /* Acceptance: tombstone the slot, draw the processing time. */
        slot_val[pick] = 0.0;
        open_cnt--;
        if (keep)
            acc_t[pick] = now;
        workers++;
        heap_push(ht, hq, hs, &hn,
                  now + random_standard_exponential(bg) * inv_proc[slot_j[pick]],
                  seq++, pick);
    }
out:
    oi[0] = workers;
    oi[1] = slot_cnt;
    oi[2] = n_comp;
    return status;
}
"""

_REPRO_OK, _REPRO_OVER_TIME = 0, 1


class _DoubleBuffer(ctypes.Structure):
    _fields_ = [
        ("data", ctypes.POINTER(ctypes.c_double)),
        ("len", ctypes.c_int64),
        ("cap", ctypes.c_int64),
    ]


def _npyrandom() -> Path:
    return Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"


def kernel_path() -> Path:
    """Where the kernel for this source, these flags and this numpy
    version is cached."""
    digest = hashlib.sha256(
        "\0".join((SOURCE, *CFLAGS, np.__version__)).encode()
    ).hexdigest()
    root = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    return root / "repro" / "kernels" / f"agent-{digest[:24]}.so"


def _build(target: Path) -> bool:
    """Compile :data:`SOURCE` into *target*; False when it cannot."""
    cc = shutil.which("cc")
    archive = _npyrandom()
    if cc is None or not archive.is_file():
        return False
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
            source = Path(tmp) / "kernel.c"
            built = Path(tmp) / "kernel.so"
            source.write_text(SOURCE)
            proc = subprocess.run(
                [cc, *CFLAGS, "-o", str(built), str(source), str(archive),
                 "-lm"],
                capture_output=True,
                timeout=120,
            )
            if proc.returncode != 0 or not built.is_file():
                return False
            os.replace(built, target)
    except (OSError, subprocess.SubprocessError):
        return False
    return True


def _open(path: Path):
    """Load *path* and declare its entry points, or ``None``."""
    try:
        lib = ctypes.CDLL(str(path))
        run = lib.repro_agent_replication
        probe = lib.repro_probe_draws
        free = lib.repro_dbuf_free
    except (OSError, AttributeError):
        return None
    run.restype = ctypes.c_int
    run.argtypes = [ctypes.c_void_p] * 5 + [ctypes.POINTER(_DoubleBuffer)]
    probe.restype = None
    probe.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
    free.restype = None
    free.argtypes = [ctypes.POINTER(_DoubleBuffer)]
    return lib


def _draws_match(lib) -> bool:
    """The kernel's draws equal numpy's, value and stream position."""
    pairs = 1000  # enough to reach the ziggurat's rare slow path
    for bit_generator in (np.random.PCG64, np.random.Philox):
        ours = np.random.Generator(bit_generator(20260101))
        theirs = np.random.Generator(bit_generator(20260101))
        out = np.empty(2 * pairs)
        lib.repro_probe_draws(
            ours.bit_generator.ctypes.bit_generator, pairs, out.ctypes.data
        )
        expected = [
            draw()
            for _ in range(pairs)
            for draw in (theirs.standard_exponential, theirs.random)
        ]
        if out.tolist() != expected or ours.random() != theirs.random():
            return False
    return True


@functools.lru_cache(maxsize=None)
def agent_kernel():
    """The loaded agent-market kernel, or ``None`` when unavailable.

    Loads the cached build, compiling it first if it is missing; a
    cached file that does not load is rebuilt once.  The result is
    memoized per process (``agent_kernel.cache_clear()`` forgets it).
    """
    try:
        path = kernel_path()
    except RuntimeError:  # no home directory to cache builds in
        return None
    lib = _open(path) if path.is_file() else None
    if lib is None:
        if not _build(path):
            return None
        lib = _open(path)
    if lib is None or not _draws_match(lib):
        return None
    return lib


class AgentColumns(NamedTuple):
    """One finished replication, as :func:`repro.perf.market._finalize`
    reads it.  The trace columns are ``None`` unless the job keeps
    traces."""

    workers: int
    slot_cnt: int
    slot_j: list
    per_atomic: list
    slot_rep: Optional[list]
    slot_price: Optional[list]
    pub_t: Optional[list]
    acc_t: Optional[list]
    com_t: Optional[list]
    comp_order: Optional[list]
    arrivals: Optional[list]


class AgentJob:
    """One agent-market job, packed once for R calls into the kernel."""

    def __init__(
        self, lib, greedy, reps, vals, prices, inv_proc, leave_weight,
        inv_lambda, t0, max_sim_time,
    ) -> None:
        n = len(reps)
        T = sum(reps)
        self._lib = lib
        self._n, self._T = n, T
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(reps, out=offsets[1:])
        self._ji = np.concatenate(
            (
                np.array([int(greedy), n, T, 0], dtype=np.int64),
                np.asarray(reps, dtype=np.int64),
                offsets,
                np.fromiter(
                    (p for row in prices for p in row), np.int64, T
                ),
            )
        )
        self._jd = np.concatenate(
            (
                np.array([leave_weight, inv_lambda, t0, max_sim_time]),
                np.asarray(inv_proc, dtype=float),
                np.fromiter((v for row in vals for v in row), float, T),
            )
        )
        self._oi = np.empty(4 + 6 * T + n, dtype=np.int64)
        self._od = np.empty(5 * T + n)

    def run(self, gen: np.random.Generator, keep_trace: bool):
        """Run one replication on *gen*'s stream.

        Returns its :class:`AgentColumns`, or ``None`` when the
        simulation passed ``max_sim_time``.
        """
        n, T = self._n, self._T
        ji, oi, od = self._ji, self._oi, self._od
        ji[3] = int(keep_trace)
        arrivals = _DoubleBuffer()
        bit_generator = gen.bit_generator
        with bit_generator.lock:
            status = self._lib.repro_agent_replication(
                bit_generator.ctypes.bit_generator,
                ji.ctypes.data, self._jd.ctypes.data,
                oi.ctypes.data, od.ctypes.data,
                ctypes.byref(arrivals),
            )
        try:
            if status == _REPRO_OVER_TIME:
                return None
            if status != _REPRO_OK:
                raise MemoryError("agent kernel could not grow a buffer")
            workers, slot_cnt, n_comp = oi[:3].tolist()
            cols = [4 + k * T for k in range(4)]
            slot_j = oi[cols[0]:cols[0] + slot_cnt].tolist()
            per_atomic = od[3 * T:3 * T + n].tolist()
            if not keep_trace:
                return AgentColumns(
                    workers, slot_cnt, slot_j, per_atomic,
                    None, None, None, None, None, None, None,
                )
            return AgentColumns(
                workers, slot_cnt, slot_j, per_atomic,
                oi[cols[1]:cols[1] + slot_cnt].tolist(),
                oi[cols[2]:cols[2] + slot_cnt].tolist(),
                od[:slot_cnt].tolist(),
                od[T:T + slot_cnt].tolist(),
                od[2 * T:2 * T + slot_cnt].tolist(),
                oi[cols[3]:cols[3] + n_comp].tolist(),
                np.ctypeslib.as_array(arrivals.data, (arrivals.len,)).tolist()
                if arrivals.len
                else [],
            )
        finally:
            self._lib.repro_dbuf_free(ctypes.byref(arrivals))


def agent_job(**job) -> Optional[AgentJob]:
    """An :class:`AgentJob` for the loaded kernel, or ``None`` when the
    kernel is unavailable."""
    lib = agent_kernel()
    return None if lib is None else AgentJob(lib, **job)
