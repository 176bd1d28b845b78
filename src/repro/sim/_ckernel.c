/* Compiled backend for the deterministic event kernel.
 *
 * A CPython C extension mirroring repro.sim._kernel_pure exactly:
 * events execute in (time, seq) order out of a dual queue (binary heap
 * of future events + FIFO ring of same-cycle events), processes are
 * generator coroutines stepped with PyIter_Send, and Signal wakeups are
 * zero-delay events appended in waiter order.  Every error message,
 * ordering rule and diagnostic surface (signal registry, blocked
 * reports, the deadlock watchdog) matches the pure kernel so the two
 * backends are bit-for-bit interchangeable — held to the determinism
 * goldens in tests/test_kernel_determinism.py.
 *
 * Also hosts the component accelerators that measurably pay for
 * themselves on the Table III suite (docs/performance.md, "Accelerator
 * audit" and "Table interpreter"):
 *
 *   - TagArray, the set-associative tag array of repro.mem.cache;
 *   - MeshCore: XY routing, link reservation and traffic accounting for
 *     repro.noc.topology.Mesh, delivering through each tile's kind ->
 *     receiver route table;
 *   - an interpreter of the MESI transition table, repro.mem.protocol.ROWS,
 *     which configure_protocol installs once as opcodes: L1Core and
 *     DirCore run the rows of one L1Cache and one L2DirectorySlice, keep
 *     their per-line state (the outstanding miss; the directory entries
 *     and request queues), build each protocol Message record, and take
 *     every message, directory step, resume and latency timer as a
 *     kernel event without a Python frame.  Hits, the wait for a fill
 *     and spin-waits stay in Python.
 *
 * A component picks its C twin when it is built, from the type of its
 * simulator; nothing rebinds when the backend switches.
 *
 * Events here are plain C structs recycled in place inside the queue
 * arrays, so the pure kernel's pooled-_Event free list has no analogue:
 * steady state allocates nothing per event.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include "structmember.h"

/* ------------------------------------------------------------------ */
/* shared state fetched from pure-python modules at init               */
/* ------------------------------------------------------------------ */
static PyObject *SimulationError;     /* repro.sim._kernel_pure */
static PyObject *SimDeadlockError;
static PyObject *chain_hooks_fn;      /* _kernel_pure._chain_hooks */
static PyObject *blocked_report_fn;   /* pure Simulator._blocked_report */
static PyObject *blocked_snapshot_fn; /* pure Simulator._blocked_snapshot */
static PyObject *join_fn;             /* pure Process.join (unbound) */
static PyObject *perf_counter_fn;     /* time.perf_counter */
static PyObject *str__step;           /* "_step" */
static PyObject *str_value;           /* "value" */
static PyObject *str_record;          /* "record" */
static PyObject *str_noc;             /* "noc" */
static PyObject *str_line;            /* "line" */
static PyObject *str_extra;           /* "extra" */
static PyObject *str_payload;         /* "payload" */
static PyObject *str_data_bytes;      /* "data_msg_bytes" */
static PyObject *str_control_bytes;   /* "control_msg_bytes" */
static PyObject *str_present;         /* "present" */
static PyObject *str_requester;       /* "requester" */
static PyObject *str_grant;           /* "grant" */
static PyObject *str_clean;           /* "clean" */
static PyObject *str_dirty;           /* "dirty" */

/* The protocol's message kinds, in repro.mem.protocol's order; the
 * category and data flag of each are installed by configure_protocol. */
enum {
    K_GETS, K_GETM, K_UPGRADE, K_DATA, K_DATA_E, K_DATA_M, K_GRANT_M,
    K_INV, K_INV_ACK, K_FWD_GETS, K_FWD_GETM, K_DATA_C2C, K_UNBLOCK,
    K_RECALL_DATA, K_RECALL_ACK, K_WB_DATA, K_EVICT_CLEAN, N_KINDS
};
static const char *kind_names[N_KINDS] = {
    "GetS", "GetM", "Upgrade", "Data", "DataE", "DataM", "GrantM",
    "Inv", "InvAck", "FwdGetS", "FwdGetM", "DataC2C", "Unblock",
    "RecallData", "RecallAck", "WBData", "EvictClean",
};
static PyObject *kind_obj[N_KINDS];   /* interned names */
static PyObject *kind_cat[N_KINDS];   /* MsgCategory; NULL = unconfigured */
static int kind_data[N_KINDS];        /* carries a line */

/* index of a kind name, or -1 */
static int
kind_index(PyObject *kind)
{
    for (int k = 0; k < N_KINDS; k++)
        if (kind_obj[k] == kind)
            return k;
    for (int k = 0; k < N_KINDS; k++) {
        int eq = PyUnicode_Check(kind)
                 ? PyUnicode_Compare(kind_obj[k], kind) == 0 : 0;
        if (eq)
            return k;
    }
    return -1;
}

typedef struct CSimulator CSimulator;
typedef struct CSignal CSignal;
typedef struct CProcess CProcess;

static PyTypeObject Simulator_Type;
static PyTypeObject Signal_Type;
static PyTypeObject Process_Type;
static PyTypeObject Message_Type;
static PyTypeObject TagArray_Type;
static PyTypeObject MeshCore_Type;
static PyTypeObject L1Core_Type;
static PyTypeObject DirCore_Type;

/* ------------------------------------------------------------------ */
/* events                                                              */
/* ------------------------------------------------------------------ */
#define EV_CALL0 0   /* fn() */
#define EV_CALL1 1   /* fn(arg) */
#define EV_CALLN 2   /* fn(*arg) — arg is a tuple */
#define EV_STEP  3   /* step the Process in fn with arg (NULL = None) */
/* the protocol controllers' events: fn is an L1Core or DirCore */
#define EV_L1_MSG     4   /* deliver the message arg to an L1 */
#define EV_DIR_MSG    5   /* deliver the message arg to a home */
#define EV_DIR_STEP   6   /* first step of the request accepted on line arg */
#define EV_DIR_RESUME 7   /* the transaction resumes after the message arg */
#define EV_DIR_FIRE   8   /* take the directory event ev on line arg */

typedef struct {
    long long time;
    long long seq;
    PyObject *fn;    /* owned */
    PyObject *arg;   /* owned or NULL */
    int kind;
    int ev;          /* EV_DIR_FIRE's event */
} CEvent;

struct CSimulator {
    PyObject_HEAD
    PyObject *weaklist;
    CEvent *heap;               /* binary heap by (time, seq) */
    Py_ssize_t heap_len, heap_cap;
    CEvent *ready;              /* FIFO ring, (time, seq)-sorted by constr. */
    Py_ssize_t ready_head, ready_len, ready_cap;  /* cap is a power of 2 */
    long long seq;
    long long now;
    long long events_executed;
    long long finish_stamp;
    long long spawned;          /* processes spawned: names proc<N> */
    PyObject *tracer;           /* None or Tracer */
    PyObject *profiler;         /* None or Profiler */
    PyObject *on_event;         /* None or callable(sim) */
    PyObject *signal_registry;  /* NULL (disabled) or list of weakrefs */
    PyObject *live_processes;   /* NULL, or set of unfinished processes
                                   (held only while the registry is on) */
    Py_ssize_t registry_compact_at;
    int retain_values;
};

struct CSignal {
    PyObject_HEAD
    PyObject *weaklist;
    CSimulator *sim;            /* owned */
    PyObject *name;             /* str */
    PyObject *waiters;          /* list of Process | callable */
    long long fire_count;
    PyObject *last_value;
};

struct CProcess {
    PyObject_HEAD
    PyObject *weaklist;
    CSimulator *sim;            /* owned */
    PyObject *name;             /* str */
    PyObject *gen;
    PyObject *result;
    CSignal *done;              /* owned; NULL until first accessed */
    PyObject *waiting_on;       /* None or Signal */
    int finished;
};

/* event-queue plumbing ---------------------------------------------- */

static int
heap_grow(CSimulator *s)
{
    Py_ssize_t cap = s->heap_cap ? s->heap_cap * 2 : 64;
    CEvent *mem = PyMem_Realloc(s->heap, (size_t)cap * sizeof(CEvent));
    if (mem == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    s->heap = mem;
    s->heap_cap = cap;
    return 0;
}

static int
ready_grow(CSimulator *s)
{
    Py_ssize_t cap = s->ready_cap ? s->ready_cap * 2 : 64;
    CEvent *mem = PyMem_Malloc((size_t)cap * sizeof(CEvent));
    if (mem == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    /* unwrap the ring into the new array */
    for (Py_ssize_t i = 0; i < s->ready_len; i++)
        mem[i] = s->ready[(s->ready_head + i) & (s->ready_cap - 1)];
    PyMem_Free(s->ready);
    s->ready = mem;
    s->ready_cap = cap;
    s->ready_head = 0;
    return 0;
}

#define EV_BEFORE(a, b) \
    ((a).time < (b).time || ((a).time == (b).time && (a).seq < (b).seq))

/* push an event; steals no references (caller passes borrowed fn/arg,
 * this function increfs).  time == sim->now goes to the ready ring
 * (matching the pure kernel's delay-0 path), future times to the heap. */
static int
csim_push_ev(CSimulator *s, long long time, PyObject *fn, PyObject *arg,
             int kind, int event)
{
    CEvent ev;
    ev.time = time;
    ev.seq = ++s->seq;
    ev.fn = Py_NewRef(fn);
    ev.arg = arg ? Py_NewRef(arg) : NULL;
    ev.kind = kind;
    ev.ev = event;
    if (time == s->now) {
        if (s->ready_len == s->ready_cap && ready_grow(s) < 0)
            goto fail;
        s->ready[(s->ready_head + s->ready_len) & (s->ready_cap - 1)] = ev;
        s->ready_len++;
        return 0;
    }
    if (s->heap_len == s->heap_cap && heap_grow(s) < 0)
        goto fail;
    {
        Py_ssize_t i = s->heap_len++;
        while (i > 0) {
            Py_ssize_t parent = (i - 1) / 2;
            if (EV_BEFORE(ev, s->heap[parent])) {
                s->heap[i] = s->heap[parent];
                i = parent;
            }
            else
                break;
        }
        s->heap[i] = ev;
    }
    return 0;
fail:
    Py_DECREF(ev.fn);
    Py_XDECREF(ev.arg);
    return -1;
}

static inline int
csim_push(CSimulator *s, long long time, PyObject *fn, PyObject *arg,
          int kind)
{
    return csim_push_ev(s, time, fn, arg, kind, 0);
}

/* pop the heap minimum into *out (caller owns the refs in *out) */
static void
heap_pop(CSimulator *s, CEvent *out)
{
    *out = s->heap[0];
    s->heap_len--;
    if (s->heap_len > 0) {
        CEvent last = s->heap[s->heap_len];
        Py_ssize_t i = 0, n = s->heap_len;
        for (;;) {
            Py_ssize_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && EV_BEFORE(s->heap[child + 1], s->heap[child]))
                child++;
            if (EV_BEFORE(s->heap[child], last)) {
                s->heap[i] = s->heap[child];
                i = child;
            }
            else
                break;
        }
        s->heap[i] = last;
    }
}

static void
ready_pop(CSimulator *s, CEvent *out)
{
    *out = s->ready[s->ready_head];
    s->ready_head = (s->ready_head + 1) & (s->ready_cap - 1);
    s->ready_len--;
}

/* ------------------------------------------------------------------ */
/* Signal                                                              */
/* ------------------------------------------------------------------ */

static void
registry_compact(CSimulator *sim)
{
    /* registry[:] = [ref for ref in registry if ref() is not None] */
    PyObject *registry = sim->signal_registry;
    Py_ssize_t n = PyList_GET_SIZE(registry);
    PyObject *keep = PyList_New(0);
    if (keep == NULL)
        return;  /* best-effort housekeeping; the caller's op still worked */
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *ref = PyList_GET_ITEM(registry, i);
        if (PyWeakref_GetObject(ref) != Py_None
                && PyList_Append(keep, ref) < 0) {
            Py_DECREF(keep);
            return;
        }
    }
    if (PyList_SetSlice(registry, 0, PY_SSIZE_T_MAX, keep) == 0) {
        Py_ssize_t kept = PyList_GET_SIZE(keep);
        sim->registry_compact_at = kept * 2 > 256 ? kept * 2 : 256;
    }
    Py_DECREF(keep);
}

/* `name` as a new str reference: None (or omitted, NULL) is the empty
 * name, as in the pure kernel; any other non-str is a TypeError */
static PyObject *
name_or_empty(PyObject *name, const char *func)
{
    if (name == NULL || name == Py_None)
        return PyUnicode_New(0, 0);
    if (!PyUnicode_Check(name)) {
        PyErr_Format(PyExc_TypeError,
                     "%s() argument 'name' must be str or None, not %.200s",
                     func, Py_TYPE(name)->tp_name);
        return NULL;
    }
    return Py_NewRef(name);
}

/* internal constructor: Signal(sim, name) on the fast path */
static CSignal *
csignal_make(CSimulator *sim, PyObject *name)
{
    CSignal *sig = (CSignal *)Signal_Type.tp_alloc(&Signal_Type, 0);
    if (sig == NULL) {
        Py_DECREF(name);
        return NULL;
    }
    sig->sim = (CSimulator *)Py_NewRef((PyObject *)sim);
    sig->name = name;                     /* steals the reference */
    sig->waiters = PyList_New(0);
    sig->fire_count = 0;
    sig->last_value = Py_NewRef(Py_None);
    if (sig->waiters == NULL) {
        Py_DECREF(sig);
        return NULL;
    }
    if (sim->signal_registry != NULL) {
        PyObject *ref = PyWeakref_NewRef((PyObject *)sig, NULL);
        if (ref == NULL || PyList_Append(sim->signal_registry, ref) < 0) {
            Py_XDECREF(ref);
            Py_DECREF(sig);
            return NULL;
        }
        Py_DECREF(ref);
        if (PyList_GET_SIZE(sim->signal_registry) > sim->registry_compact_at)
            registry_compact(sim);
    }
    return sig;
}

static int
csignal_init(CSignal *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"sim", "name", NULL};
    PyObject *simobj, *name = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!|O:Signal", kwlist,
                                     &Simulator_Type, &simobj, &name))
        return -1;
    CSimulator *sim = (CSimulator *)simobj;
    name = name_or_empty(name, "Signal");
    if (name == NULL)
        return -1;
    PyObject *waiters = PyList_New(0);
    if (waiters == NULL) {
        Py_DECREF(name);
        return -1;
    }
    Py_XSETREF(self->sim, (CSimulator *)Py_NewRef(simobj));
    Py_XSETREF(self->name, name);
    Py_XSETREF(self->waiters, waiters);
    self->fire_count = 0;
    Py_XSETREF(self->last_value, Py_NewRef(Py_None));
    if (sim->signal_registry != NULL) {
        PyObject *ref = PyWeakref_NewRef((PyObject *)self, NULL);
        if (ref == NULL || PyList_Append(sim->signal_registry, ref) < 0) {
            Py_XDECREF(ref);
            return -1;
        }
        Py_DECREF(ref);
        if (PyList_GET_SIZE(sim->signal_registry) > sim->registry_compact_at)
            registry_compact(sim);
    }
    return 0;
}

/* fire the signal: wake every currently-registered waiter with `value`
 * as zero-delay events, in registration order. */
static int
csignal_fire_impl(CSignal *sig, PyObject *value)
{
    sig->fire_count++;
    CSimulator *sim = sig->sim;
    if (sim->retain_values || sim->tracer != Py_None)
        Py_XSETREF(sig->last_value, Py_NewRef(value));
    PyObject *waiters = sig->waiters;
    Py_ssize_t n = PyList_GET_SIZE(waiters);
    if (n == 0)
        return 0;
    PyObject *fresh = PyList_New(0);
    if (fresh == NULL)
        return -1;
    sig->waiters = fresh;           /* steal: we own the old list now */
    int rc = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *w = PyList_GET_ITEM(waiters, i);
        int kind = Py_IS_TYPE(w, &Process_Type) ? EV_STEP : EV_CALL1;
        if (csim_push(sim, sim->now, w, value, kind) < 0) {
            rc = -1;
            break;
        }
    }
    Py_DECREF(waiters);
    return rc;
}

static PyObject *
csignal_fire(CSignal *self, PyObject *args)
{
    PyObject *value = Py_None;
    if (!PyArg_ParseTuple(args, "|O:fire", &value))
        return NULL;
    if (csignal_fire_impl(self, value) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
csignal_add_callback(CSignal *self, PyObject *fn)
{
    if (PyList_Append(self->waiters, fn) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
csignal_repr(CSignal *self)
{
    return PyUnicode_FromFormat("Signal(%R, waiters=%zd)", self->name,
                                PyList_GET_SIZE(self->waiters));
}

static PyObject *
csignal_get_n_waiters(CSignal *self, void *closure)
{
    return PyLong_FromSsize_t(PyList_GET_SIZE(self->waiters));
}

static PyObject *
csignal_get_fire_count(CSignal *self, void *closure)
{
    return PyLong_FromLongLong(self->fire_count);
}

static int
csignal_traverse(CSignal *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->waiters);
    Py_VISIT(self->last_value);
    return 0;
}

static int
csignal_clear(CSignal *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->name);
    Py_CLEAR(self->waiters);
    Py_CLEAR(self->last_value);
    return 0;
}

static void
csignal_dealloc(CSignal *self)
{
    PyObject_GC_UnTrack(self);
    if (self->weaklist != NULL)
        PyObject_ClearWeakRefs((PyObject *)self);
    csignal_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef csignal_methods[] = {
    {"fire", (PyCFunction)csignal_fire, METH_VARARGS,
     "Wake all registered waiters with ``value`` at the current cycle."},
    {"add_callback", (PyCFunction)csignal_add_callback, METH_O,
     "Register ``fn(value)`` to run (once) the next time the signal fires."},
    {NULL}
};

static PyMemberDef csignal_members[] = {
    {"sim", T_OBJECT, offsetof(CSignal, sim), READONLY, NULL},
    {"name", T_OBJECT, offsetof(CSignal, name), READONLY, NULL},
    {"_waiters", T_OBJECT, offsetof(CSignal, waiters), READONLY, NULL},
    {"last_value", T_OBJECT, offsetof(CSignal, last_value), READONLY, NULL},
    {NULL}
};

static PyGetSetDef csignal_getsets[] = {
    {"n_waiters", (getter)csignal_get_n_waiters, NULL,
     "Number of waiters currently registered.", NULL},
    {"fire_count", (getter)csignal_get_fire_count, NULL, NULL, NULL},
    {NULL}
};

static PyTypeObject Signal_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.Signal",
    .tp_basicsize = sizeof(CSignal),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC
                | Py_TPFLAGS_BASETYPE,
    .tp_doc = "A one-to-many wake-up point (compiled backend).",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)csignal_init,
    .tp_dealloc = (destructor)csignal_dealloc,
    .tp_traverse = (traverseproc)csignal_traverse,
    .tp_clear = (inquiry)csignal_clear,
    .tp_repr = (reprfunc)csignal_repr,
    .tp_weaklistoffset = offsetof(CSignal, weaklist),
    .tp_methods = csignal_methods,
    .tp_members = csignal_members,
    .tp_getset = csignal_getsets,
};

/* ------------------------------------------------------------------ */
/* Process                                                             */
/* ------------------------------------------------------------------ */

/* Advance the generator one step; `value` may be NULL (= send None).
 * Mirrors pure Process._step including every error message. */
static int
process_step(CProcess *p, PyObject *value)
{
    if (p->finished)
        return 0;
    Py_XSETREF(p->waiting_on, Py_NewRef(Py_None));
    PyObject *item;
    PySendResult sr = PyIter_Send(p->gen, value ? value : Py_None, &item);
    if (sr == PYGEN_ERROR)
        return -1;
    if (sr == PYGEN_RETURN) {
        p->finished = 1;
        Py_XSETREF(p->result, item);   /* steals the returned reference */
        p->sim->finish_stamp++;
        /* the caller holds p, so dropping the set's reference is safe */
        if (p->sim->live_processes != NULL
                && PySet_Discard(p->sim->live_processes, (PyObject *)p) < 0)
            return -1;
        /* no done signal yet means nobody waits on one */
        return p->done == NULL ? 0 : csignal_fire_impl(p->done, item);
    }
    /* PYGEN_NEXT: dispatch the yielded item (exact types first — this
     * is also how bool is excluded on the fast path) */
    if (PyLong_CheckExact(item)) {
        long long delay = PyLong_AsLongLong(item);
        if (delay == -1 && PyErr_Occurred()) {
            Py_DECREF(item);
            return -1;
        }
        if (delay < 0) {
            PyObject *msg = PyUnicode_FromFormat(
                "process %R yielded negative delay %lld", p->name, delay);
            if (msg != NULL) {
                PyErr_SetObject(SimulationError, msg);
                Py_DECREF(msg);
            }
            Py_DECREF(item);
            return -1;
        }
        Py_DECREF(item);
        return csim_push(p->sim, p->sim->now + delay, (PyObject *)p, NULL,
                         EV_STEP);
    }
    if (Py_IS_TYPE(item, &Signal_Type)) {
        Py_XSETREF(p->waiting_on, item);          /* steals item */
        return PyList_Append(((CSignal *)item)->waiters, (PyObject *)p);
    }
    /* slow path: subclasses and type errors */
    if (PyBool_Check(item)) {
        PyObject *msg = PyUnicode_FromFormat(
            "process %R yielded a bool (%S); yield an int delay or a Signal",
            p->name, item);
        if (msg != NULL) {
            PyErr_SetObject(SimulationError, msg);
            Py_DECREF(msg);
        }
        Py_DECREF(item);
        return -1;
    }
    if (PyLong_Check(item)) {
        long long delay = PyLong_AsLongLong(item);
        if (delay == -1 && PyErr_Occurred()) {
            Py_DECREF(item);
            return -1;
        }
        if (delay < 0) {
            PyObject *msg = PyUnicode_FromFormat(
                "process %R yielded negative delay %lld", p->name, delay);
            if (msg != NULL) {
                PyErr_SetObject(SimulationError, msg);
                Py_DECREF(msg);
            }
            Py_DECREF(item);
            return -1;
        }
        Py_DECREF(item);
        return csim_push(p->sim, p->sim->now + delay, (PyObject *)p, NULL,
                         EV_STEP);
    }
    if (PyObject_TypeCheck(item, &Signal_Type)) {
        Py_XSETREF(p->waiting_on, item);
        return PyList_Append(((CSignal *)item)->waiters, (PyObject *)p);
    }
    PyObject *msg = PyUnicode_FromFormat(
        "process %R yielded unsupported item %R; "
        "yield an int delay or a Signal", p->name, item);
    if (msg != NULL) {
        PyErr_SetObject(SimulationError, msg);
        Py_DECREF(msg);
    }
    Py_DECREF(item);
    return -1;
}

static int
cprocess_init(CProcess *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"sim", "gen", "name", NULL};
    PyObject *simobj, *gen, *name = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!O|O:Process", kwlist,
                                     &Simulator_Type, &simobj, &gen, &name))
        return -1;
    name = name_or_empty(name, "Process");
    if (name == NULL)
        return -1;
    Py_XSETREF(self->sim, (CSimulator *)Py_NewRef(simobj));
    Py_XSETREF(self->name, name);
    Py_XSETREF(self->gen, Py_NewRef(gen));
    self->finished = 0;
    Py_XSETREF(self->result, Py_NewRef(Py_None));
    Py_CLEAR(self->done);
    Py_XSETREF(self->waiting_on, Py_NewRef(Py_None));
    return 0;
}

static PyObject *
cprocess__step(CProcess *self, PyObject *args)
{
    PyObject *value = Py_None;
    if (!PyArg_ParseTuple(args, "|O:_step", &value))
        return NULL;
    if (process_step(self, value) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
cprocess_join(CProcess *self, PyObject *Py_UNUSED(ignored))
{
    /* the pure kernel's Process.join generator is duck-typed over
     * (finished, done, result) — reuse it verbatim */
    return PyObject_CallOneArg(join_fn, (PyObject *)self);
}

static PyObject *
cprocess_repr(CProcess *self)
{
    return PyUnicode_FromFormat("Process(%R, %s)", self->name,
                                self->finished ? "finished" : "running");
}

static PyObject *
cprocess_get_finished(CProcess *self, void *closure)
{
    return PyBool_FromLong(self->finished);
}

/* Process.done, built on first access like the pure kernel's */
static PyObject *
cprocess_get_done(CProcess *self, void *closure)
{
    if (self->done == NULL) {
        if (self->sim == NULL) {
            PyErr_SetString(PyExc_TypeError, "Process is not initialized");
            return NULL;
        }
        PyObject *done_name = PyUnicode_FromFormat("%U.done", self->name);
        if (done_name == NULL)
            return NULL;
        self->done = csignal_make(self->sim, done_name);
        if (self->done == NULL)
            return NULL;
    }
    return Py_NewRef((PyObject *)self->done);
}

static int
cprocess_traverse(CProcess *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->gen);
    Py_VISIT(self->result);
    Py_VISIT(self->done);
    Py_VISIT(self->waiting_on);
    return 0;
}

static int
cprocess_clear(CProcess *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->name);
    Py_CLEAR(self->gen);
    Py_CLEAR(self->result);
    Py_CLEAR(self->done);
    Py_CLEAR(self->waiting_on);
    return 0;
}

static void
cprocess_dealloc(CProcess *self)
{
    PyObject_GC_UnTrack(self);
    if (self->weaklist != NULL)
        PyObject_ClearWeakRefs((PyObject *)self);
    cprocess_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef cprocess_methods[] = {
    {"_step", (PyCFunction)cprocess__step, METH_VARARGS, NULL},
    {"join", (PyCFunction)cprocess_join, METH_NOARGS,
     "Generator usable as ``result = yield from proc.join()``."},
    {NULL}
};

static PyMemberDef cprocess_members[] = {
    {"sim", T_OBJECT, offsetof(CProcess, sim), READONLY, NULL},
    {"name", T_OBJECT, offsetof(CProcess, name), READONLY, NULL},
    {"result", T_OBJECT, offsetof(CProcess, result), READONLY, NULL},
    {"waiting_on", T_OBJECT, offsetof(CProcess, waiting_on), READONLY, NULL},
    {NULL}
};

static PyGetSetDef cprocess_getsets[] = {
    {"finished", (getter)cprocess_get_finished, NULL, NULL, NULL},
    {"done", (getter)cprocess_get_done, NULL,
     "Fires (with the return value) when the generator completes.", NULL},
    {NULL}
};

static PyTypeObject Process_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    /* __name__ must be "Process": the profiler attributes events whose
     * callback owner's type is literally named Process */
    .tp_name = "repro.sim._ckernel.Process",
    .tp_basicsize = sizeof(CProcess),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC
                | Py_TPFLAGS_BASETYPE,
    .tp_doc = "Drives a generator coroutine (compiled backend).",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)cprocess_init,
    .tp_dealloc = (destructor)cprocess_dealloc,
    .tp_traverse = (traverseproc)cprocess_traverse,
    .tp_clear = (inquiry)cprocess_clear,
    .tp_repr = (reprfunc)cprocess_repr,
    .tp_weaklistoffset = offsetof(CProcess, weaklist),
    .tp_methods = cprocess_methods,
    .tp_members = cprocess_members,
    .tp_getset = cprocess_getsets,
};

/* ------------------------------------------------------------------ */
/* Simulator                                                           */
/* ------------------------------------------------------------------ */

static int
csim_init(CSimulator *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"profile", NULL};
    PyObject *profile = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O:Simulator", kwlist,
                                     &profile))
        return -1;
    self->heap = NULL;
    self->heap_len = self->heap_cap = 0;
    self->ready = NULL;
    self->ready_head = self->ready_len = self->ready_cap = 0;
    self->seq = 0;
    self->now = 0;
    self->events_executed = 0;
    self->finish_stamp = 0;
    self->spawned = 0;
    Py_XSETREF(self->tracer, Py_NewRef(Py_None));
    Py_XSETREF(self->profiler,
               Py_NewRef(profile == NULL ? Py_None : profile));
    Py_XSETREF(self->on_event, Py_NewRef(Py_None));
    Py_CLEAR(self->signal_registry);
    Py_CLEAR(self->live_processes);
    self->registry_compact_at = 256;
    self->retain_values = 0;
    return 0;
}

/* parse (delay_or_time, fn, *args) into an event push */
static PyObject *
csim_schedule_common(CSimulator *self, PyObject *args, int absolute)
{
    Py_ssize_t n = PyTuple_GET_SIZE(args);
    if (n < 2) {
        PyErr_Format(PyExc_TypeError, "%s expected at least 2 arguments",
                     absolute ? "schedule_at" : "schedule");
        return NULL;
    }
    long long t = PyLong_AsLongLong(PyTuple_GET_ITEM(args, 0));
    if (t == -1 && PyErr_Occurred())
        return NULL;
    long long time;
    if (absolute) {
        if (t < self->now) {
            PyObject *msg = PyUnicode_FromFormat(
                "cannot schedule in the past (%lld < %lld)", t, self->now);
            if (msg != NULL) {
                PyErr_SetObject(SimulationError, msg);
                Py_DECREF(msg);
            }
            return NULL;
        }
        time = t;
    }
    else {
        if (t < 0) {
            PyObject *msg = PyUnicode_FromFormat("negative delay %lld", t);
            if (msg != NULL) {
                PyErr_SetObject(SimulationError, msg);
                Py_DECREF(msg);
            }
            return NULL;
        }
        time = self->now + t;
    }
    PyObject *fn = PyTuple_GET_ITEM(args, 1);
    int rc;
    if (n == 2)
        rc = csim_push(self, time, fn, NULL, EV_CALL0);
    else if (n == 3)
        rc = csim_push(self, time, fn, PyTuple_GET_ITEM(args, 2), EV_CALL1);
    else {
        PyObject *rest = PyTuple_GetSlice(args, 2, n);
        if (rest == NULL)
            return NULL;
        rc = csim_push(self, time, fn, rest, EV_CALLN);
        Py_DECREF(rest);
    }
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
csim_schedule(CSimulator *self, PyObject *args)
{
    return csim_schedule_common(self, args, 0);
}

static PyObject *
csim_schedule_at(CSimulator *self, PyObject *args)
{
    return csim_schedule_common(self, args, 1);
}

static PyObject *
csim_signal(CSimulator *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"name", NULL};
    PyObject *name = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O:signal", kwlist, &name))
        return NULL;
    name = name_or_empty(name, "signal");
    if (name == NULL)
        return NULL;
    return (PyObject *)csignal_make(self, name);
}

static PyObject *
csim_spawn(CSimulator *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"gen", "name", NULL};
    PyObject *gen, *name = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|O:spawn", kwlist,
                                     &gen, &name))
        return NULL;
    name = name_or_empty(name, "spawn");
    if (name != NULL && PyUnicode_GET_LENGTH(name) == 0)
        Py_SETREF(name, PyUnicode_FromFormat("proc%lld", self->spawned));
    if (name == NULL)
        return NULL;
    self->spawned++;
    CProcess *proc = (CProcess *)Process_Type.tp_alloc(&Process_Type, 0);
    if (proc == NULL) {
        Py_DECREF(name);
        return NULL;
    }
    /* the kernel holds the process only through its pending events (and,
     * while the signal registry is on, until it finishes), and `done` is
     * built when first asked for */
    proc->sim = (CSimulator *)Py_NewRef((PyObject *)self);
    proc->name = name;
    proc->gen = Py_NewRef(gen);
    proc->finished = 0;
    proc->result = Py_NewRef(Py_None);
    proc->waiting_on = Py_NewRef(Py_None);
    if (csim_push(self, self->now, (PyObject *)proc, NULL, EV_STEP) < 0
            || (self->live_processes != NULL
                && PySet_Add(self->live_processes, (PyObject *)proc) < 0)) {
        Py_DECREF(proc);
        return NULL;
    }
    return (PyObject *)proc;
}

/* the protocol controllers' event handlers (defined with the cores) */
static int l1_receive(PyObject *core, PyObject *msg);
static int dir_receive(PyObject *core, PyObject *msg);
static int dir_step(PyObject *core, PyObject *line);
static int dir_resume(PyObject *core, PyObject *msg);
static int dir_fire(PyObject *core, PyObject *line, int event);

/* run one event's callback; -1 with an exception set on failure */
static int
csim_dispatch(CEvent *cur)
{
    PyObject *res;
    switch (cur->kind) {
    case EV_STEP:
        return process_step((CProcess *)cur->fn, cur->arg);
    case EV_L1_MSG:
        return l1_receive(cur->fn, cur->arg);
    case EV_DIR_MSG:
        return dir_receive(cur->fn, cur->arg);
    case EV_DIR_STEP:
        return dir_step(cur->fn, cur->arg);
    case EV_DIR_RESUME:
        return dir_resume(cur->fn, cur->arg);
    case EV_DIR_FIRE:
        return dir_fire(cur->fn, cur->arg, cur->ev);
    case EV_CALL0:
        res = PyObject_CallNoArgs(cur->fn);
        break;
    case EV_CALL1:
        res = PyObject_CallOneArg(cur->fn, cur->arg);
        break;
    default:
        res = PyObject_Call(cur->fn, cur->arg, NULL);
        break;
    }
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* run one popped event; consumes cur's references.  Returns -1 with an
 * exception set on failure. */
static int
csim_exec(CSimulator *s, CEvent *cur)
{
    int rc = 0;
    if (s->profiler == Py_None)
        rc = csim_dispatch(cur);
    else {
        /* profiled path: wall-time the callback and attribute it by the
         * same key the pure kernel uses (the callable; for process
         * steps, the bound _step method whose __self__ is the Process;
         * a protocol core's __self__ is its controller) */
        PyObject *fnobj;
        if (cur->kind == EV_STEP)
            fnobj = PyObject_GetAttr(cur->fn, str__step);
        else
            fnobj = Py_NewRef(cur->fn);
        if (fnobj == NULL)
            rc = -1;
        else {
            PyObject *t0 = PyObject_CallNoArgs(perf_counter_fn);
            if (t0 == NULL)
                rc = -1;
            else {
                rc = csim_dispatch(cur);
                if (rc == 0) {
                    PyObject *t1 = PyObject_CallNoArgs(perf_counter_fn);
                    if (t1 == NULL)
                        rc = -1;
                    else {
                        double dt = PyFloat_AsDouble(t1)
                                    - PyFloat_AsDouble(t0);
                        Py_DECREF(t1);
                        PyObject *tm = PyLong_FromLongLong(cur->time);
                        PyObject *wl = PyFloat_FromDouble(dt);
                        if (tm == NULL || wl == NULL)
                            rc = -1;
                        else {
                            PyObject *r = PyObject_CallMethodObjArgs(
                                s->profiler, str_record, fnobj, tm, wl,
                                NULL);
                            if (r == NULL)
                                rc = -1;
                            Py_XDECREF(r);
                        }
                        Py_XDECREF(tm);
                        Py_XDECREF(wl);
                    }
                }
                Py_DECREF(t0);
            }
            Py_DECREF(fnobj);
        }
    }
    Py_DECREF(cur->fn);
    Py_XDECREF(cur->arg);
    return rc;
}

/* peek the globally next event without popping.  Returns 0 when both
 * queues are empty; otherwise sets *from_heap and *time_out. */
static inline int
csim_peek(CSimulator *s, int *from_heap, long long *time_out)
{
    if (s->ready_len > 0) {
        CEvent *ev = &s->ready[s->ready_head];
        *from_heap = 0;
        if (s->heap_len > 0) {
            CEvent *h = &s->heap[0];
            if (h->time < ev->time
                    || (h->time == ev->time && h->seq < ev->seq)) {
                *from_heap = 1;
                *time_out = h->time;
                return 1;
            }
        }
        *time_out = ev->time;
        return 1;
    }
    if (s->heap_len > 0) {
        *from_heap = 1;
        *time_out = s->heap[0].time;
        return 1;
    }
    return 0;
}

static PyObject *
csim_run(CSimulator *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"until", "max_events", NULL};
    PyObject *until_obj = Py_None, *max_events_obj = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|OO:run", kwlist,
                                     &until_obj, &max_events_obj))
        return NULL;
    int has_until = until_obj != Py_None;
    int has_max = max_events_obj != Py_None;
    long long until = 0, max_events = 0;
    if (has_until) {
        until = PyLong_AsLongLong(until_obj);
        if (until == -1 && PyErr_Occurred())
            return NULL;
    }
    if (has_max) {
        max_events = PyLong_AsLongLong(max_events_obj);
        if (max_events == -1 && PyErr_Occurred())
            return NULL;
    }
    /* the checkpoint hook attaches/detaches only between runs */
    PyObject *on_event = Py_NewRef(self->on_event);
    long long executed = 0;
    for (;;) {
        int from_heap;
        long long time;
        if (!csim_peek(self, &from_heap, &time))
            break;
        if (has_until && time > until) {
            self->now = until;
            break;
        }
        CEvent cur;
        if (from_heap)
            heap_pop(self, &cur);
        else
            ready_pop(self, &cur);
        self->now = time;
        if (csim_exec(self, &cur) < 0) {
            Py_DECREF(on_event);
            return NULL;
        }
        executed++;
        if (on_event != Py_None) {
            PyObject *r = PyObject_CallOneArg(on_event, (PyObject *)self);
            if (r == NULL) {
                Py_DECREF(on_event);
                return NULL;
            }
            Py_DECREF(r);
        }
        if (has_max && executed >= max_events) {
            self->events_executed += executed;
            Py_DECREF(on_event);
            PyObject *msg = PyUnicode_FromFormat(
                "exceeded max_events=%lld at cycle %lld", max_events,
                self->now);
            if (msg != NULL) {
                PyErr_SetObject(SimulationError, msg);
                Py_DECREF(msg);
            }
            return NULL;
        }
    }
    Py_DECREF(on_event);
    self->events_executed += executed;
    return PyLong_FromLongLong(self->now);
}

/* raise SimDeadlockError with the pure kernel's message and structured
 * blocked snapshot; `prefix_fmt` must contain exactly one %U (report). */
static void
raise_deadlock_watchdog(PyObject *procs, long long max_cycles)
{
    PyObject *report = PyObject_CallOneArg(blocked_report_fn, procs);
    PyObject *snapshot = PyObject_CallOneArg(blocked_snapshot_fn, procs);
    if (report == NULL || snapshot == NULL)
        goto done;
    PyObject *msg = PyUnicode_FromFormat(
        "deadlock watchdog: exceeded max_cycles=%lld "
        "with blocked processes: %U", max_cycles, report);
    if (msg == NULL)
        goto done;
    PyObject *exc = PyObject_CallFunctionObjArgs(SimDeadlockError, msg,
                                                 snapshot, NULL);
    Py_DECREF(msg);
    if (exc != NULL) {
        PyErr_SetObject(SimDeadlockError, exc);
        Py_DECREF(exc);
    }
done:
    Py_XDECREF(report);
    Py_XDECREF(snapshot);
}

static void
raise_deadlock_drained(PyObject *procs)
{
    PyObject *report = PyObject_CallOneArg(blocked_report_fn, procs);
    PyObject *snapshot = PyObject_CallOneArg(blocked_snapshot_fn, procs);
    if (report == NULL || snapshot == NULL)
        goto done;
    PyObject *msg = PyUnicode_FromFormat(
        "event queue drained with unfinished processes: %U", report);
    if (msg == NULL)
        goto done;
    PyObject *exc = PyObject_CallFunctionObjArgs(SimDeadlockError, msg,
                                                 snapshot, NULL);
    Py_DECREF(msg);
    if (exc != NULL) {
        PyErr_SetObject(SimDeadlockError, exc);
        Py_DECREF(exc);
    }
done:
    Py_XDECREF(report);
    Py_XDECREF(snapshot);
}

static int
proc_is_finished(PyObject *p)
{
    if (Py_IS_TYPE(p, &Process_Type))
        return ((CProcess *)p)->finished;
    PyObject *f = PyObject_GetAttrString(p, "finished");
    if (f == NULL)
        return -1;
    int rc = PyObject_IsTrue(f);
    Py_DECREF(f);
    return rc;
}

static PyObject *
csim_run_until_processes_finish(CSimulator *self, PyObject *args,
                                PyObject *kwds)
{
    static char *kwlist[] = {"procs", "max_events", "max_cycles", NULL};
    PyObject *procs_in, *max_events_obj = Py_None, *max_cycles_obj = Py_None;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "O|OO:run_until_processes_finish", kwlist,
            &procs_in, &max_events_obj, &max_cycles_obj))
        return NULL;
    int has_max = max_events_obj != Py_None;
    int has_cycles = max_cycles_obj != Py_None;
    long long max_events = 0, max_cycles = 0;
    if (has_max) {
        max_events = PyLong_AsLongLong(max_events_obj);
        if (max_events == -1 && PyErr_Occurred())
            return NULL;
    }
    if (has_cycles) {
        max_cycles = PyLong_AsLongLong(max_cycles_obj);
        if (max_cycles == -1 && PyErr_Occurred())
            return NULL;
    }
    PyObject *procs = PySequence_List(procs_in);
    if (procs == NULL)
        return NULL;
    PyObject *on_event = Py_NewRef(self->on_event);
    PyObject *result = NULL;
    long long executed = 0;
    /* re-evaluate the all-finished predicate only when some process
     * completed (the kernel's finish stamp moved) */
    long long stamp = self->finish_stamp - 1;
    for (;;) {
        if (stamp != self->finish_stamp) {
            stamp = self->finish_stamp;
            int all_done = 1;
            Py_ssize_t n = PyList_GET_SIZE(procs);
            for (Py_ssize_t i = 0; i < n; i++) {
                int f = proc_is_finished(PyList_GET_ITEM(procs, i));
                if (f < 0)
                    goto finally;
                if (!f) {
                    all_done = 0;
                    break;
                }
            }
            if (all_done) {
                result = PyLong_FromLongLong(self->now);
                goto finally;
            }
        }
        int from_heap;
        long long time;
        if (!csim_peek(self, &from_heap, &time))
            break;
        if (has_cycles && time > max_cycles) {
            self->now = max_cycles;
            raise_deadlock_watchdog(procs, max_cycles);
            goto finally;
        }
        CEvent cur;
        if (from_heap)
            heap_pop(self, &cur);
        else
            ready_pop(self, &cur);
        self->now = time;
        if (csim_exec(self, &cur) < 0)
            goto finally;
        executed++;
        if (on_event != Py_None) {
            PyObject *r = PyObject_CallOneArg(on_event, (PyObject *)self);
            if (r == NULL)
                goto finally;
            Py_DECREF(r);
        }
        if (has_max && executed >= max_events) {
            PyObject *msg = PyUnicode_FromFormat(
                "exceeded max_events=%lld at cycle %lld", max_events,
                self->now);
            if (msg != NULL) {
                PyErr_SetObject(SimulationError, msg);
                Py_DECREF(msg);
            }
            goto finally;
        }
    }
    /* queue drained: every proc must have finished */
    {
        int any_unfinished = 0;
        Py_ssize_t n = PyList_GET_SIZE(procs);
        for (Py_ssize_t i = 0; i < n; i++) {
            int f = proc_is_finished(PyList_GET_ITEM(procs, i));
            if (f < 0)
                goto finally;
            if (!f) {
                any_unfinished = 1;
                break;
            }
        }
        if (any_unfinished)
            raise_deadlock_drained(procs);
        else
            result = PyLong_FromLongLong(self->now);
    }
finally:
    self->events_executed += executed;
    Py_DECREF(on_event);
    Py_DECREF(procs);
    return result;
}

static PyObject *
csim_enable_signal_registry(CSimulator *self, PyObject *Py_UNUSED(ignored))
{
    if (self->signal_registry == NULL) {
        self->signal_registry = PyList_New(0);
        if (self->signal_registry == NULL)
            return NULL;
        self->live_processes = PySet_New(NULL);
        if (self->live_processes == NULL) {
            Py_CLEAR(self->signal_registry);
            return NULL;
        }
    }
    self->retain_values = 1;
    Py_RETURN_NONE;
}

static PyObject *
csim_live_signals(CSimulator *self, PyObject *Py_UNUSED(ignored))
{
    if (self->signal_registry == NULL)
        return PyList_New(0);
    PyObject *alive = PyList_New(0);
    PyObject *refs = PyList_New(0);
    if (alive == NULL || refs == NULL)
        goto fail;
    Py_ssize_t n = PyList_GET_SIZE(self->signal_registry);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *ref = PyList_GET_ITEM(self->signal_registry, i);
        PyObject *sig = PyWeakref_GetObject(ref);
        if (sig != Py_None) {
            if (PyList_Append(alive, sig) < 0
                    || PyList_Append(refs, ref) < 0)
                goto fail;
        }
    }
    Py_SETREF(self->signal_registry, refs);
    {
        Py_ssize_t kept = PyList_GET_SIZE(self->signal_registry);
        self->registry_compact_at = kept * 2 > 256 ? kept * 2 : 256;
    }
    return alive;
fail:
    Py_XDECREF(alive);
    Py_XDECREF(refs);
    return NULL;
}

static PyObject *
csim_add_on_event(CSimulator *self, PyObject *fn)
{
    /* same composition logic as the pure kernel (shared _chain_hooks) */
    if (self->on_event == Py_None) {
        Py_SETREF(self->on_event, Py_NewRef(fn));
        Py_RETURN_NONE;
    }
    PyObject *hooks = PyObject_GetAttrString(self->on_event, "_hooks");
    PyObject *lst;
    if (hooks == NULL) {
        PyErr_Clear();
        lst = PyList_New(0);
        if (lst == NULL || PyList_Append(lst, self->on_event) < 0) {
            Py_XDECREF(lst);
            return NULL;
        }
    }
    else {
        lst = PySequence_List(hooks);
        Py_DECREF(hooks);
        if (lst == NULL)
            return NULL;
    }
    if (PyList_Append(lst, fn) < 0) {
        Py_DECREF(lst);
        return NULL;
    }
    PyObject *chain = PyObject_CallOneArg(chain_hooks_fn, lst);
    Py_DECREF(lst);
    if (chain == NULL)
        return NULL;
    Py_SETREF(self->on_event, chain);
    Py_RETURN_NONE;
}

static PyObject *
csim_remove_on_event(CSimulator *self, PyObject *fn)
{
    if (self->on_event == Py_None)
        Py_RETURN_NONE;
    PyObject *hooks = PyObject_GetAttrString(self->on_event, "_hooks");
    PyObject *lst;
    if (hooks == NULL) {
        PyErr_Clear();
        lst = PyList_New(0);
        if (lst == NULL || PyList_Append(lst, self->on_event) < 0) {
            Py_XDECREF(lst);
            return NULL;
        }
    }
    else {
        lst = PySequence_List(hooks);
        Py_DECREF(hooks);
        if (lst == NULL)
            return NULL;
    }
    PyObject *kept = PyList_New(0);
    if (kept == NULL) {
        Py_DECREF(lst);
        return NULL;
    }
    Py_ssize_t n = PyList_GET_SIZE(lst);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *h = PyList_GET_ITEM(lst, i);
        int eq = PyObject_RichCompareBool(h, fn, Py_EQ);
        if (eq < 0) {
            Py_DECREF(lst);
            Py_DECREF(kept);
            return NULL;
        }
        if (!eq && PyList_Append(kept, h) < 0) {
            Py_DECREF(lst);
            Py_DECREF(kept);
            return NULL;
        }
    }
    Py_DECREF(lst);
    Py_ssize_t kn = PyList_GET_SIZE(kept);
    if (kn == 0)
        Py_SETREF(self->on_event, Py_NewRef(Py_None));
    else if (kn == 1)
        Py_SETREF(self->on_event, Py_NewRef(PyList_GET_ITEM(kept, 0)));
    else {
        PyObject *chain = PyObject_CallOneArg(chain_hooks_fn, kept);
        if (chain == NULL) {
            Py_DECREF(kept);
            return NULL;
        }
        Py_SETREF(self->on_event, chain);
    }
    Py_DECREF(kept);
    Py_RETURN_NONE;
}

static PyObject *
csim_repr(CSimulator *self)
{
    return PyUnicode_FromFormat("Simulator(now=%lld, pending=%zd)",
                                self->now, self->heap_len + self->ready_len);
}

static PyObject *
csim_get_now(CSimulator *self, void *closure)
{
    return PyLong_FromLongLong(self->now);
}

static PyObject *
csim_get_events_executed(CSimulator *self, void *closure)
{
    return PyLong_FromLongLong(self->events_executed);
}

static PyObject *
csim_get_pending(CSimulator *self, void *closure)
{
    return PyLong_FromSsize_t(self->heap_len + self->ready_len);
}

static PyObject *
csim_get_registry(CSimulator *self, void *closure)
{
    if (self->signal_registry == NULL)
        Py_RETURN_NONE;
    return Py_NewRef(self->signal_registry);
}

static int
csim_traverse(CSimulator *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->heap_len; i++) {
        Py_VISIT(self->heap[i].fn);
        Py_VISIT(self->heap[i].arg);
    }
    for (Py_ssize_t i = 0; i < self->ready_len; i++) {
        CEvent *ev = &self->ready[(self->ready_head + i)
                                  & (self->ready_cap - 1)];
        Py_VISIT(ev->fn);
        Py_VISIT(ev->arg);
    }
    Py_VISIT(self->tracer);
    Py_VISIT(self->profiler);
    Py_VISIT(self->on_event);
    Py_VISIT(self->signal_registry);
    Py_VISIT(self->live_processes);
    return 0;
}

static int
csim_clear(CSimulator *self)
{
    for (Py_ssize_t i = 0; i < self->heap_len; i++) {
        Py_CLEAR(self->heap[i].fn);
        Py_CLEAR(self->heap[i].arg);
    }
    self->heap_len = 0;
    for (Py_ssize_t i = 0; i < self->ready_len; i++) {
        CEvent *ev = &self->ready[(self->ready_head + i)
                                  & (self->ready_cap - 1)];
        Py_CLEAR(ev->fn);
        Py_CLEAR(ev->arg);
    }
    self->ready_len = 0;
    Py_CLEAR(self->tracer);
    Py_CLEAR(self->profiler);
    Py_CLEAR(self->on_event);
    Py_CLEAR(self->signal_registry);
    Py_CLEAR(self->live_processes);
    return 0;
}

static void
csim_dealloc(CSimulator *self)
{
    PyObject_GC_UnTrack(self);
    if (self->weaklist != NULL)
        PyObject_ClearWeakRefs((PyObject *)self);
    csim_clear(self);
    PyMem_Free(self->heap);
    PyMem_Free(self->ready);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef csim_methods[] = {
    {"schedule", (PyCFunction)csim_schedule, METH_VARARGS,
     "Run ``fn(*args)`` after ``delay`` cycles (0 = later this cycle)."},
    {"schedule_at", (PyCFunction)csim_schedule_at, METH_VARARGS,
     "Run ``fn(*args)`` at absolute cycle ``time`` (>= now)."},
    {"signal", (PyCFunction)csim_signal, METH_VARARGS | METH_KEYWORDS,
     "Create a new Signal bound to this simulator."},
    {"spawn", (PyCFunction)csim_spawn, METH_VARARGS | METH_KEYWORDS,
     "Start a generator as a process on the next zero-delay slot."},
    {"run", (PyCFunction)csim_run, METH_VARARGS | METH_KEYWORDS,
     "Drain the event queue."},
    {"run_until_processes_finish",
     (PyCFunction)csim_run_until_processes_finish,
     METH_VARARGS | METH_KEYWORDS,
     "Run until every process in ``procs`` has finished."},
    {"enable_signal_registry", (PyCFunction)csim_enable_signal_registry,
     METH_NOARGS, "Track every Signal created from now on (weakly)."},
    {"live_signals", (PyCFunction)csim_live_signals, METH_NOARGS,
     "Signals created since enable_signal_registry and still alive."},
    {"add_on_event", (PyCFunction)csim_add_on_event, METH_O,
     "Add ``fn`` to the per-event checkpoint chain."},
    {"remove_on_event", (PyCFunction)csim_remove_on_event, METH_O,
     "Remove ``fn`` from the checkpoint chain (no-op if absent)."},
    {NULL}
};

static PyMemberDef csim_members[] = {
    {"tracer", T_OBJECT, offsetof(CSimulator, tracer), 0, NULL},
    {"profiler", T_OBJECT, offsetof(CSimulator, profiler), 0, NULL},
    {"on_event", T_OBJECT, offsetof(CSimulator, on_event), 0, NULL},
    {NULL}
};

static PyGetSetDef csim_getsets[] = {
    {"now", (getter)csim_get_now, NULL,
     "Current simulated cycle.", NULL},
    {"events_executed", (getter)csim_get_events_executed, NULL,
     "Total events executed so far.", NULL},
    {"pending_events", (getter)csim_get_pending, NULL,
     "Number of events currently queued.", NULL},
    {"_signal_registry", (getter)csim_get_registry, NULL, NULL, NULL},
    {NULL}
};

static PyTypeObject Simulator_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.Simulator",
    .tp_basicsize = sizeof(CSimulator),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC
                | Py_TPFLAGS_BASETYPE,
    .tp_doc = "Deterministic (time, seq)-ordered event engine (compiled).",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)csim_init,
    .tp_dealloc = (destructor)csim_dealloc,
    .tp_traverse = (traverseproc)csim_traverse,
    .tp_clear = (inquiry)csim_clear,
    .tp_repr = (reprfunc)csim_repr,
    .tp_weaklistoffset = offsetof(CSimulator, weaklist),
    .tp_methods = csim_methods,
    .tp_members = csim_members,
    .tp_getset = csim_getsets,
};

/* ------------------------------------------------------------------ */
/* Message: the protocol record the C controllers build               */
/* ------------------------------------------------------------------ */

/* Same fields, sizes and repr as repro.noc.messages.Message, which is
 * what Python code constructs; this type has no Python constructor.  The
 * line and the extra freight are kept apart, and the payload dict
 * ({"line": line, "extra": extra}) is built when Python first reads it:
 * the compiled controllers never do. */

typedef struct {
    PyObject_HEAD
    long src;
    long dst;
    PyObject *kind;       /* interned str */
    PyObject *category;   /* MsgCategory member */
    long size_bytes;
    long long msg_id;
    int kind_idx;
    PyObject *line;       /* int */
    PyObject *extra_key;  /* NULL: extra is the payload's "extra" itself;
                             else it is {extra_key: extra} */
    PyObject *extra;
    PyObject *payload;    /* NULL until read */
} CMessage;

static long long message_counter = 0;

static PyObject *
cmessage_repr(CMessage *self)
{
    PyObject *catval = PyObject_GetAttr(self->category, str_value);
    if (catval == NULL)
        return NULL;
    PyObject *r = PyUnicode_FromFormat("Message(%U %ld->%ld %ldB %S)",
                                       self->kind, self->src, self->dst,
                                       self->size_bytes, catval);
    Py_DECREF(catval);
    return r;
}

static PyObject *
cmessage_get_payload(CMessage *self, void *closure)
{
    if (self->payload == NULL) {
        PyObject *extra = self->extra_key == NULL ? Py_NewRef(self->extra)
                                                  : PyDict_New();
        PyObject *pd = extra == NULL ? NULL : PyDict_New();
        if (pd == NULL
                || (self->extra_key != NULL
                    && PyDict_SetItem(extra, self->extra_key,
                                      self->extra) < 0)
                || PyDict_SetItem(pd, str_line, self->line) < 0
                || PyDict_SetItem(pd, str_extra, extra) < 0) {
            Py_XDECREF(extra);
            Py_XDECREF(pd);
            return NULL;
        }
        Py_DECREF(extra);
        self->payload = pd;
    }
    return Py_NewRef(self->payload);
}

static int
cmessage_traverse(CMessage *self, visitproc visit, void *arg)
{
    Py_VISIT(self->category);
    Py_VISIT(self->line);
    Py_VISIT(self->extra);
    Py_VISIT(self->payload);
    return 0;
}

static int
cmessage_clear(CMessage *self)
{
    Py_CLEAR(self->kind);
    Py_CLEAR(self->category);
    Py_CLEAR(self->line);
    Py_CLEAR(self->extra_key);
    Py_CLEAR(self->extra);
    Py_CLEAR(self->payload);
    return 0;
}

static void
cmessage_dealloc(CMessage *self)
{
    PyObject_GC_UnTrack(self);
    cmessage_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMemberDef cmessage_members[] = {
    {"src", T_LONG, offsetof(CMessage, src), 0, NULL},
    {"dst", T_LONG, offsetof(CMessage, dst), 0, NULL},
    {"kind", T_OBJECT, offsetof(CMessage, kind), READONLY, NULL},
    {"category", T_OBJECT, offsetof(CMessage, category), READONLY, NULL},
    {"size_bytes", T_LONG, offsetof(CMessage, size_bytes), 0, NULL},
    {"msg_id", T_LONGLONG, offsetof(CMessage, msg_id), 0, NULL},
    {NULL}
};

static PyGetSetDef cmessage_getsets[] = {
    {"payload", (getter)cmessage_get_payload, NULL,
     "{\"line\": line, \"extra\": extra}", NULL},
    {NULL}
};

static PyTypeObject Message_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.Message",
    .tp_basicsize = sizeof(CMessage),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A protocol NoC message built by the C controllers.",
    .tp_dealloc = (destructor)cmessage_dealloc,
    .tp_traverse = (traverseproc)cmessage_traverse,
    .tp_clear = (inquiry)cmessage_clear,
    .tp_repr = (reprfunc)cmessage_repr,
    .tp_members = cmessage_members,
    .tp_getset = cmessage_getsets,
};

/* a protocol message of kind k (borrowed line, extra_key, extra) */
static CMessage *
cmessage_new(long src, long dst, int k, long size, PyObject *line,
             PyObject *extra_key, PyObject *extra)
{
    if (kind_cat[k] == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "configure_protocol was never called");
        return NULL;
    }
    CMessage *msg = (CMessage *)Message_Type.tp_alloc(&Message_Type, 0);
    if (msg == NULL)
        return NULL;
    msg->src = src;
    msg->dst = dst;
    msg->kind = Py_NewRef(kind_obj[k]);
    msg->category = Py_NewRef(kind_cat[k]);
    msg->size_bytes = size;
    msg->msg_id = message_counter++;
    msg->kind_idx = k;
    msg->line = Py_NewRef(line);
    msg->extra_key = Py_XNewRef(extra_key);
    msg->extra = Py_NewRef(extra);
    return msg;
}

/* a message's line (new reference), from any Message */
static PyObject *
msg_line(PyObject *msg)
{
    if (Py_IS_TYPE(msg, &Message_Type))
        return Py_NewRef(((CMessage *)msg)->line);
    PyObject *payload = PyObject_GetAttr(msg, str_payload);
    if (payload == NULL)
        return NULL;
    PyObject *line = PyObject_GetItem(payload, str_line);
    Py_DECREF(payload);
    return line;
}

/* payload["extra"][key] of a message (new reference) */
static PyObject *
msg_extra(PyObject *msg, PyObject *key)
{
    PyObject *extra;
    if (Py_IS_TYPE(msg, &Message_Type)) {
        CMessage *m = (CMessage *)msg;
        if (m->extra_key == key)
            return Py_NewRef(m->extra);
        if (m->extra_key != NULL) {
            PyErr_SetObject(PyExc_KeyError, key);
            return NULL;
        }
        extra = Py_NewRef(m->extra);
    }
    else {
        PyObject *payload = PyObject_GetAttr(msg, str_payload);
        if (payload == NULL)
            return NULL;
        extra = PyObject_GetItem(payload, str_extra);
        Py_DECREF(payload);
        if (extra == NULL)
            return NULL;
    }
    PyObject *value = PyObject_GetItem(extra, key);
    Py_DECREF(extra);
    return value;
}

/* a message's kind index (-1: not a protocol kind) and source */
static int
msg_kind(PyObject *msg, PyObject **kind_out, long *src_out)
{
    if (Py_IS_TYPE(msg, &Message_Type)) {
        CMessage *m = (CMessage *)msg;
        *kind_out = Py_NewRef(m->kind);
        *src_out = m->src;
        return m->kind_idx;
    }
    PyObject *kind = PyObject_GetAttrString(msg, "kind");
    if (kind == NULL)
        return -2;
    PyObject *src = PyObject_GetAttrString(msg, "src");
    if (src == NULL) {
        Py_DECREF(kind);
        return -2;
    }
    *src_out = PyLong_AsLong(src);
    Py_DECREF(src);
    if (*src_out == -1 && PyErr_Occurred()) {
        Py_DECREF(kind);
        return -2;
    }
    *kind_out = kind;
    return kind_index(kind);
}

/* ------------------------------------------------------------------ */
/* TagArray (repro.mem.cache)                                          */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *config;
    long long line_bytes;
    long long n_sets;
    long long ways;
    PyObject **sets;       /* n_sets entries, each NULL or a dict
                              {line_addr: state}; dict order == LRU */
} CTagArray;

static int
ctag_init(CTagArray *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"config", NULL};
    PyObject *config;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:TagArray", kwlist,
                                     &config))
        return -1;
    PyObject *lb = PyObject_GetAttrString(config, "line_bytes");
    PyObject *ns = lb ? PyObject_GetAttrString(config, "n_sets") : NULL;
    PyObject *wy = ns ? PyObject_GetAttrString(config, "ways") : NULL;
    if (wy == NULL) {
        Py_XDECREF(lb);
        Py_XDECREF(ns);
        return -1;
    }
    long long line_bytes = PyLong_AsLongLong(lb);
    long long n_sets = PyLong_AsLongLong(ns);
    long long ways = PyLong_AsLongLong(wy);
    Py_DECREF(lb);
    Py_DECREF(ns);
    Py_DECREF(wy);
    if (PyErr_Occurred())
        return -1;
    if (line_bytes <= 0 || n_sets <= 0 || ways <= 0) {
        PyErr_SetString(PyExc_ValueError, "invalid cache geometry");
        return -1;
    }
    PyObject **sets = PyMem_Calloc((size_t)n_sets, sizeof(PyObject *));
    if (sets == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if (self->sets != NULL) {      /* re-init */
        for (long long i = 0; i < self->n_sets; i++)
            Py_XDECREF(self->sets[i]);
        PyMem_Free(self->sets);
    }
    Py_XSETREF(self->config, Py_NewRef(config));
    self->line_bytes = line_bytes;
    self->n_sets = n_sets;
    self->ways = ways;
    self->sets = sets;
    return 0;
}

static inline long long
ctag_set_index(CTagArray *self, long long line_addr)
{
    long long idx = (line_addr / self->line_bytes) % self->n_sets;
    return idx < 0 ? idx + self->n_sets : idx;
}

/* parse the line-address argument; -1 with error set on failure */
static inline long long
ctag_parse_line(PyObject *arg)
{
    long long v = PyLong_AsLongLong(arg);
    if (v == -1 && PyErr_Occurred())
        return -1;
    return v;
}

/* raise KeyError("line 0x40 <what>") with the pure class's wording
 * (PyUnicode_FromFormat only gained %llx in Python 3.12) */
static void
ctag_key_error(PyObject *line, const char *what)
{
    PyObject *hex = PyNumber_ToBase(line, 16);
    PyObject *msg = hex == NULL ? NULL
        : PyUnicode_FromFormat("line %U %s", hex, what);
    Py_XDECREF(hex);
    if (msg != NULL) {
        PyErr_SetObject(PyExc_KeyError, msg);
        Py_DECREF(msg);
    }
}

/* The tag operations the compiled controllers call directly: `line` is
 * the line as an int object (the set dicts' key) and `lv` its value. */

/* state of a resident line (borrowed), or NULL: absent, or an error */
static inline PyObject *
tags_get(CTagArray *t, PyObject *line, long long lv)
{
    PyObject *s = t->sets[ctag_set_index(t, lv)];
    return s == NULL ? NULL : PyDict_GetItemWithError(s, line);
}

static int
tags_set(CTagArray *t, PyObject *line, long long lv, PyObject *state)
{
    PyObject *s = t->sets[ctag_set_index(t, lv)];
    int present = s == NULL ? 0 : PyDict_Contains(s, line);
    if (present <= 0) {
        if (present == 0)
            ctag_key_error(line, "not resident");
        return -1;
    }
    /* plain assignment keeps the existing LRU position */
    return PyDict_SetItem(s, line, state);
}

static int
tags_touch(CTagArray *t, PyObject *line, long long lv)
{
    PyObject *s = t->sets[ctag_set_index(t, lv)];
    PyObject *state = s == NULL ? NULL : PyDict_GetItemWithError(s, line);
    if (state == NULL) {
        if (!PyErr_Occurred())
            ctag_key_error(line, "not resident");
        return -1;
    }
    Py_INCREF(state);
    /* pop + reinsert moves the line to MRU (dict insertion order) */
    int rc = PyDict_DelItem(s, line) < 0 || PyDict_SetItem(s, line, state) < 0
             ? -1 : 0;
    Py_DECREF(state);
    return rc;
}

/* drop a line; its prior state (new reference) or NULL (absent/error) */
static PyObject *
tags_drop(CTagArray *t, PyObject *line, long long lv)
{
    PyObject *s = t->sets[ctag_set_index(t, lv)];
    PyObject *state = s == NULL ? NULL : PyDict_GetItemWithError(s, line);
    if (state == NULL)
        return NULL;
    Py_INCREF(state);
    if (PyDict_DelItem(s, line) < 0)
        Py_CLEAR(state);
    return state;
}

/* may the line cand be evicted?  1, 0, or -1 with an error set */
typedef int (*may_evict_fn)(void *ctx, PyObject *cand);

static int
py_may_evict(void *ctx, PyObject *cand)
{
    PyObject *r = PyObject_CallOneArg((PyObject *)ctx, cand);
    if (r == NULL)
        return -1;
    int ok = PyObject_IsTrue(r);
    Py_DECREF(r);
    return ok;
}

/* insert a line as MRU; a full set evicts its least recently used line
 * that `may` (NULL: any) allows, returned as new references in
 * *victim and *victim_state (NULL when nothing was evicted) */
static int
tags_insert(CTagArray *t, PyObject *line, long long lv, PyObject *state,
            may_evict_fn may, void *ctx, PyObject **victim,
            PyObject **victim_state)
{
    *victim = *victim_state = NULL;
    long long idx = ctag_set_index(t, lv);
    PyObject *s = t->sets[idx];
    if (s == NULL) {
        s = PyDict_New();
        if (s == NULL)
            return -1;
        t->sets[idx] = s;
    }
    int present = PyDict_Contains(s, line);
    if (present < 0)
        return -1;
    if (present) {
        ctag_key_error(line, "already resident");
        return -1;
    }
    if (PyDict_GET_SIZE(s) >= t->ways) {
        /* dict order == LRU, first = LRU.  A Python may_evict callback
         * walks a snapshot of the keys, so it cannot invalidate the
         * iteration; the C ones leave the set alone. */
        PyObject *cands = NULL;
        if (may == py_may_evict && (cands = PyDict_Keys(s)) == NULL)
            return -1;
        Py_ssize_t pos = 0, i = 0;
        PyObject *cand, *vstate;
        while (cands != NULL ? i < PyList_GET_SIZE(cands)
                             : PyDict_Next(s, &pos, &cand, &vstate)) {
            if (cands != NULL)
                cand = PyList_GET_ITEM(cands, i++);
            int ok = may == NULL ? 1 : may(ctx, cand);
            if (ok < 0) {
                Py_XDECREF(cands);
                return -1;
            }
            if (ok) {
                vstate = PyDict_GetItemWithError(s, cand);
                if (vstate == NULL) {
                    Py_XDECREF(cands);
                    if (!PyErr_Occurred())
                        PyErr_SetObject(PyExc_KeyError, cand);
                    return -1;
                }
                *victim = Py_NewRef(cand);
                *victim_state = Py_NewRef(vstate);
                break;
            }
        }
        Py_XDECREF(cands);
        if (*victim != NULL && PyDict_DelItem(s, *victim) < 0)
            goto fail;
    }
    if (PyDict_SetItem(s, line, state) < 0)
        goto fail;
    return 0;
fail:
    Py_CLEAR(*victim);
    Py_CLEAR(*victim_state);
    return -1;
}

static PyObject *
ctag_lookup(CTagArray *self, PyObject *arg)
{
    long long line = ctag_parse_line(arg);
    if (line == -1 && PyErr_Occurred())
        return NULL;
    PyObject *state = tags_get(self, arg, line);
    if (state == NULL) {
        if (PyErr_Occurred())
            return NULL;
        Py_RETURN_NONE;
    }
    return Py_NewRef(state);
}

static PyObject *
ctag_touch(CTagArray *self, PyObject *arg)
{
    long long line = ctag_parse_line(arg);
    if ((line == -1 && PyErr_Occurred()) || tags_touch(self, arg, line) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
ctag_set_state(CTagArray *self, PyObject *args)
{
    PyObject *arg, *state;
    if (!PyArg_ParseTuple(args, "OO:set_state", &arg, &state))
        return NULL;
    long long line = ctag_parse_line(arg);
    if ((line == -1 && PyErr_Occurred())
            || tags_set(self, arg, line, state) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
ctag_insert(CTagArray *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"line_addr", "state", "may_evict", NULL};
    PyObject *arg, *state, *may_evict = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO|O:insert", kwlist,
                                     &arg, &state, &may_evict))
        return NULL;
    long long line = ctag_parse_line(arg);
    if (line == -1 && PyErr_Occurred())
        return NULL;
    PyObject *victim, *vstate;
    if (tags_insert(self, arg, line, state,
                    may_evict == Py_None ? NULL : py_may_evict, may_evict,
                    &victim, &vstate) < 0)
        return NULL;
    if (victim == NULL)
        Py_RETURN_NONE;
    PyObject *pair = PyTuple_Pack(2, victim, vstate);
    Py_DECREF(victim);
    Py_DECREF(vstate);
    return pair;
}

static PyObject *
ctag_invalidate(CTagArray *self, PyObject *arg)
{
    long long line = ctag_parse_line(arg);
    if (line == -1 && PyErr_Occurred())
        return NULL;
    PyObject *state = tags_drop(self, arg, line);
    if (state == NULL && !PyErr_Occurred())
        Py_RETURN_NONE;
    return state;
}

static PyObject *
ctag_resident_lines(CTagArray *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *lines = PyList_New(0);
    if (lines == NULL)
        return NULL;
    for (long long i = 0; i < self->n_sets; i++) {
        PyObject *s = self->sets[i];
        if (s == NULL)
            continue;
        PyObject *key;
        PyObject *value;
        Py_ssize_t pos = 0;
        while (PyDict_Next(s, &pos, &key, &value)) {
            if (PyList_Append(lines, key) < 0) {
                Py_DECREF(lines);
                return NULL;
            }
        }
    }
    PyObject *it = PyObject_GetIter(lines);
    Py_DECREF(lines);
    return it;
}

static PyObject *
ctag_occupancy(CTagArray *self, PyObject *Py_UNUSED(ignored))
{
    Py_ssize_t total = 0;
    for (long long i = 0; i < self->n_sets; i++)
        if (self->sets[i] != NULL)
            total += PyDict_GET_SIZE(self->sets[i]);
    return PyLong_FromSsize_t(total);
}

static int
ctag_traverse(CTagArray *self, visitproc visit, void *arg)
{
    Py_VISIT(self->config);
    if (self->sets != NULL)
        for (long long i = 0; i < self->n_sets; i++)
            Py_VISIT(self->sets[i]);
    return 0;
}

static int
ctag_clear_gc(CTagArray *self)
{
    Py_CLEAR(self->config);
    if (self->sets != NULL)
        for (long long i = 0; i < self->n_sets; i++)
            Py_CLEAR(self->sets[i]);
    return 0;
}

static void
ctag_dealloc(CTagArray *self)
{
    PyObject_GC_UnTrack(self);
    ctag_clear_gc(self);
    PyMem_Free(self->sets);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef ctag_methods[] = {
    {"lookup", (PyCFunction)ctag_lookup, METH_O,
     "State of ``line_addr`` or None; does not touch LRU order."},
    {"touch", (PyCFunction)ctag_touch, METH_O,
     "Mark ``line_addr`` most-recently used."},
    {"set_state", (PyCFunction)ctag_set_state, METH_VARARGS,
     "Update the state of a resident line (keeps LRU position)."},
    {"insert", (PyCFunction)ctag_insert, METH_VARARGS | METH_KEYWORDS,
     "Insert a line as MRU; returns the evicted ``(line, state)`` if any."},
    {"invalidate", (PyCFunction)ctag_invalidate, METH_O,
     "Drop a line; returns its prior state (None if absent)."},
    {"resident_lines", (PyCFunction)ctag_resident_lines, METH_NOARGS,
     "All resident line addresses (diagnostics/tests)."},
    {"occupancy", (PyCFunction)ctag_occupancy, METH_NOARGS,
     "Total resident lines."},
    {NULL}
};

static PyMemberDef ctag_members[] = {
    {"config", T_OBJECT, offsetof(CTagArray, config), READONLY, NULL},
    {NULL}
};

static PyTypeObject TagArray_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.TagArray",
    .tp_basicsize = sizeof(CTagArray),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC
                | Py_TPFLAGS_BASETYPE,
    .tp_doc = "Set-associative tag array with true-LRU replacement.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)ctag_init,
    .tp_dealloc = (destructor)ctag_dealloc,
    .tp_traverse = (traverseproc)ctag_traverse,
    .tp_clear = (inquiry)ctag_clear_gc,
    .tp_methods = ctag_methods,
    .tp_members = ctag_members,
};

/* ------------------------------------------------------------------ */
/* MeshCore (repro.noc.topology hot path)                              */
/* ------------------------------------------------------------------ */

/* Link state lives in two flat C arrays indexed
 *     dir * (w*h) + y*w + x          (dir: 0=E, 1=W, 2=S, 3=N)
 * where (x, y) is the link's *source* tile.  send() derives each XY
 * hop's index from the tile coordinates as it walks the route, so link
 * state stays O(w*h) at any mesh size; the Python Mesh reads carried
 * bytes back through carried_list() with the same index formula. */

typedef struct {
    PyObject_HEAD
    CSimulator *sim;            /* owned; guaranteed a compiled Simulator */
    long w, h, ntiles;
    long router_latency;
    long link_width;
    long long *next_free;       /* 4*w*h */
    long long *carried;         /* 4*w*h */
    PyObject **handlers;        /* ntiles entries, NULL = unregistered */
    PyObject *per_cat;          /* dict MsgCategory -> (switch_c, msgs_c) */
    PyObject *byte_hops;        /* BoundCounter */
    PyObject *link_traversals;  /* BoundCounter */
    /* C-side traffic accumulators: send() adds into plain integers and
     * TrafficMeter reads call flush_traffic() to fold them into the
     * BoundCounters above (mirroring the BoundCounter/CounterSet._flush
     * buffering one level deeper) */
    long n_cats;
    PyObject **cat_objs;        /* n_cats MsgCategory members (strong) */
    long long *cat_sw;          /* switch-bytes per category */
    long long *cat_msgs;        /* delivered messages per category */
    long long acc_byte_hops;
    long long acc_traversals;
} CMeshCore;

static int
cmesh_init(CMeshCore *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"sim", "width", "height", "router_latency",
                             "link_width_bytes", "per_cat", "byte_hops",
                             "link_traversals", NULL};
    PyObject *sim, *per_cat, *byte_hops, *link_traversals;
    long w, h, router_latency, link_width;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "OllllOOO:MeshCore", kwlist, &sim, &w, &h,
            &router_latency, &link_width, &per_cat, &byte_hops,
            &link_traversals))
        return -1;
    if (!Py_IS_TYPE(sim, &Simulator_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "MeshCore requires a compiled Simulator");
        return -1;
    }
    if (w <= 0 || h <= 0 || link_width <= 0 || router_latency < 0) {
        PyErr_SetString(PyExc_ValueError, "invalid mesh geometry");
        return -1;
    }
    if (!PyDict_CheckExact(per_cat)) {
        PyErr_SetString(PyExc_TypeError, "per_cat must be a dict");
        return -1;
    }
    long ntiles = w * h;
    long n_cats = (long)PyDict_Size(per_cat);
    long long *next_free = PyMem_Calloc((size_t)(4 * ntiles),
                                        sizeof(long long));
    long long *carried = PyMem_Calloc((size_t)(4 * ntiles),
                                      sizeof(long long));
    PyObject **handlers = PyMem_Calloc((size_t)ntiles, sizeof(PyObject *));
    PyObject **cat_objs = PyMem_Calloc((size_t)(n_cats ? n_cats : 1),
                                       sizeof(PyObject *));
    long long *cat_sw = PyMem_Calloc((size_t)(n_cats ? n_cats : 1),
                                     sizeof(long long));
    long long *cat_msgs = PyMem_Calloc((size_t)(n_cats ? n_cats : 1),
                                       sizeof(long long));
    if (!next_free || !carried || !handlers
            || !cat_objs || !cat_sw || !cat_msgs) {
        PyMem_Free(next_free);
        PyMem_Free(carried);
        PyMem_Free(handlers);
        PyMem_Free(cat_objs);
        PyMem_Free(cat_sw);
        PyMem_Free(cat_msgs);
        PyErr_NoMemory();
        return -1;
    }
    {
        Py_ssize_t pos = 0, i = 0;
        PyObject *key, *val;
        while (PyDict_Next(per_cat, &pos, &key, &val))
            cat_objs[i++] = Py_NewRef(key);
    }
    /* re-init support: drop any prior state */
    if (self->handlers != NULL)
        for (long i = 0; i < self->ntiles; i++)
            Py_XDECREF(self->handlers[i]);
    PyMem_Free(self->handlers);
    if (self->cat_objs != NULL)
        for (long i = 0; i < self->n_cats; i++)
            Py_XDECREF(self->cat_objs[i]);
    PyMem_Free(self->cat_objs);
    PyMem_Free(self->cat_sw);
    PyMem_Free(self->cat_msgs);
    PyMem_Free(self->next_free);
    PyMem_Free(self->carried);

    Py_INCREF(sim);
    Py_XSETREF(self->sim, (CSimulator *)sim);
    self->w = w;
    self->h = h;
    self->ntiles = ntiles;
    self->router_latency = router_latency;
    self->link_width = link_width;
    self->next_free = next_free;
    self->carried = carried;
    self->handlers = handlers;
    self->n_cats = n_cats;
    self->cat_objs = cat_objs;
    self->cat_sw = cat_sw;
    self->cat_msgs = cat_msgs;
    self->acc_byte_hops = 0;
    self->acc_traversals = 0;
    Py_XSETREF(self->per_cat, Py_NewRef(per_cat));
    Py_XSETREF(self->byte_hops, Py_NewRef(byte_hops));
    Py_XSETREF(self->link_traversals, Py_NewRef(link_traversals));
    return 0;
}

static PyObject *
cmesh_register(CMeshCore *self, PyObject *args)
{
    long tile;
    PyObject *handler;
    if (!PyArg_ParseTuple(args, "lO:register", &tile, &handler))
        return NULL;
    if (tile < 0 || tile >= self->ntiles) {
        PyErr_Format(PyExc_ValueError, "tile %ld outside the mesh", tile);
        return NULL;
    }
    if (self->handlers[tile] != NULL) {
        PyErr_Format(PyExc_ValueError, "tile %ld already has a handler",
                     tile);
        return NULL;
    }
    self->handlers[tile] = Py_NewRef(handler);
    Py_RETURN_NONE;
}

/* counter.value += amount on a BoundCounter (or anything with .value) */
static int
counter_iadd(PyObject *counter, long long amount)
{
    PyObject *old = PyObject_GetAttr(counter, str_value);
    if (old == NULL)
        return -1;
    long long v = PyLong_AsLongLong(old);
    Py_DECREF(old);
    if (v == -1 && PyErr_Occurred())
        return -1;
    PyObject *new = PyLong_FromLongLong(v + amount);
    if (new == NULL)
        return -1;
    int rc = PyObject_SetAttr(counter, str_value, new);
    Py_DECREF(new);
    return rc;
}

/* route a message and queue its delivery; *arrival is its cycle */
static int
cmesh_route(CMeshCore *self, PyObject *msg, long long *arrival)
{
    long src, dst, size;
    PyObject *kind, *category;
    if (Py_IS_TYPE(msg, &Message_Type)) {
        CMessage *m = (CMessage *)msg;
        src = m->src;
        dst = m->dst;
        size = m->size_bytes;
        kind = m->kind;
        category = m->category;
    }
    else {
        /* a repro.noc.messages.Message handed to the public Mesh.send;
         * off the protocol hot path, but must route identically */
        PyObject *o;
        if ((o = PyObject_GetAttrString(msg, "src")) == NULL)
            return -1;
        src = PyLong_AsLong(o);
        Py_DECREF(o);
        if ((o = PyObject_GetAttrString(msg, "dst")) == NULL)
            return -1;
        dst = PyLong_AsLong(o);
        Py_DECREF(o);
        if ((o = PyObject_GetAttrString(msg, "size_bytes")) == NULL)
            return -1;
        size = PyLong_AsLong(o);
        Py_DECREF(o);
        if (PyErr_Occurred())
            return -1;
        kind = PyObject_GetAttrString(msg, "kind");
        if (kind == NULL)
            return -1;
        Py_DECREF(kind);                     /* msg keeps it alive */
        category = PyObject_GetAttrString(msg, "category");
        if (category == NULL)
            return -1;
        Py_DECREF(category);
    }
    if (dst < 0 || dst >= self->ntiles || self->handlers[dst] == NULL) {
        PyObject *key = PyLong_FromLong(dst);
        if (key != NULL) {
            PyErr_SetObject(PyExc_KeyError, key);
            Py_DECREF(key);
        }
        return -1;
    }
    PyObject *handler = self->handlers[dst];
    if (PyDict_CheckExact(handler)) {
        /* the tile's kind -> receiver route table */
        PyObject *h = PyDict_GetItemWithError(handler, kind);
        if (h == NULL) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_RuntimeError,
                             "tile %ld: unroutable message %R", dst, msg);
            return -1;
        }
        handler = h;
    }
    /* a compiled controller takes its messages without a Python call */
    int ev_kind = Py_IS_TYPE(handler, &L1Core_Type) ? EV_L1_MSG
                  : Py_IS_TYPE(handler, &DirCore_Type) ? EV_DIR_MSG
                  : EV_CALL1;
    CSimulator *sim = self->sim;
    long long now = sim->now;

    if (sim->tracer != Py_None) {
        PyObject *catval = PyObject_GetAttr(category, str_value);
        if (catval == NULL)
            return -1;
        PyObject *who = PyUnicode_FromFormat("tile%ld", src);
        PyObject *what = who == NULL ? NULL : PyUnicode_FromFormat(
            "%U -> tile%ld (%ldB %S)", kind, dst, size, catval);
        PyObject *nowobj = what == NULL ? NULL : PyLong_FromLongLong(now);
        Py_DECREF(catval);
        PyObject *r = nowobj == NULL ? NULL : PyObject_CallMethodObjArgs(
            sim->tracer, str_record, nowobj, str_noc, who, what, NULL);
        Py_XDECREF(nowobj);
        Py_XDECREF(who);
        Py_XDECREF(what);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }

    if (src == dst) {
        *arrival = now + 1;                 /* LOCAL_DELIVERY_LATENCY */
        return csim_push(sim, *arrival, handler, msg, ev_kind);
    }

    if (src < 0 || src >= self->ntiles) {
        PyErr_Format(PyExc_ValueError, "core id %ld out of range", src);
        return -1;
    }
    long ser = (size + self->link_width - 1) / self->link_width;
    long w = self->w, wh = self->ntiles;
    long x = src % w, y = src / w;
    long dx = dst % w, dy = dst / w;
    long hops = labs(dx - x) + labs(dy - y);
    long long per_hop = self->router_latency + ser;
    long long t = now;
    while (x != dx || y != dy) {
        /* XY routing, X first; the link is indexed by its source tile */
        long li;
        if (x != dx) {
            li = (dx > x ? 0 : wh) + y * w + x;
            x += dx > x ? 1 : -1;
        }
        else {
            li = (dy > y ? 2 * wh : 3 * wh) + y * w + x;
            y += dy > y ? 1 : -1;
        }
        long long next_free = self->next_free[li];
        long long depart = t >= next_free ? t : next_free;
        self->next_free[li] = depart + ser;
        t = depart + per_hop;
        self->carried[li] += size;
    }

    /* TrafficMeter.record: switch-bytes count the h+1 traversed routers.
     * Categories are the handful of MsgCategory members (the per_cat
     * keys), so a pointer scan beats a dict probe; the sums live in C
     * integers until TrafficMeter reads trigger flush_traffic(). */
    long ci = -1;
    for (long i = 0; i < self->n_cats; i++)
        if (self->cat_objs[i] == category) {
            ci = i;
            break;
        }
    if (ci < 0) {
        PyErr_SetObject(PyExc_KeyError, category);
        return -1;
    }
    self->cat_sw[ci] += (long long)size * (hops + 1);
    self->cat_msgs[ci] += 1;
    self->acc_byte_hops += (long long)size * hops;
    self->acc_traversals += hops;

    *arrival = t;
    return csim_push(sim, t, handler, msg, ev_kind);
}

static PyObject *
cmesh_send(CMeshCore *self, PyObject *msg)
{
    long long arrival;
    if (cmesh_route(self, msg, &arrival) < 0)
        return NULL;
    return PyLong_FromLongLong(arrival);
}

/* the compiled controllers' send: a kind-k message about line */
static int
cmesh_send_kind(CMeshCore *self, long src, long dst, int k, long size,
                PyObject *line, PyObject *extra_key, PyObject *extra)
{
    CMessage *msg = cmessage_new(src, dst, k, size, line, extra_key, extra);
    if (msg == NULL)
        return -1;
    long long arrival;
    int rc = cmesh_route(self, (PyObject *)msg, &arrival);
    Py_DECREF(msg);
    return rc;
}

static PyObject *
cmesh_flush_traffic(CMeshCore *self, PyObject *Py_UNUSED(ignored))
{
    /* fold the C-side traffic sums into the TrafficMeter BoundCounters */
    for (long i = 0; i < self->n_cats; i++) {
        if (self->cat_sw[i] == 0 && self->cat_msgs[i] == 0)
            continue;
        PyObject *pair = PyDict_GetItemWithError(self->per_cat,
                                                 self->cat_objs[i]);
        if (pair == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetObject(PyExc_KeyError, self->cat_objs[i]);
            return NULL;
        }
        if (counter_iadd(PyTuple_GET_ITEM(pair, 0), self->cat_sw[i]) < 0
                || counter_iadd(PyTuple_GET_ITEM(pair, 1),
                                self->cat_msgs[i]) < 0)
            return NULL;
        self->cat_sw[i] = 0;
        self->cat_msgs[i] = 0;
    }
    if (self->acc_byte_hops != 0) {
        if (counter_iadd(self->byte_hops, self->acc_byte_hops) < 0)
            return NULL;
        self->acc_byte_hops = 0;
    }
    if (self->acc_traversals != 0) {
        if (counter_iadd(self->link_traversals, self->acc_traversals) < 0)
            return NULL;
        self->acc_traversals = 0;
    }
    Py_RETURN_NONE;
}

static PyObject *
cmesh_carried_list(CMeshCore *self, PyObject *Py_UNUSED(ignored))
{
    long n = 4 * self->ntiles;
    PyObject *lst = PyList_New(n);
    if (lst == NULL)
        return NULL;
    for (long i = 0; i < n; i++) {
        PyObject *v = PyLong_FromLongLong(self->carried[i]);
        if (v == NULL) {
            Py_DECREF(lst);
            return NULL;
        }
        PyList_SET_ITEM(lst, i, v);
    }
    return lst;
}

static int
cmesh_traverse(CMeshCore *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->per_cat);
    Py_VISIT(self->byte_hops);
    Py_VISIT(self->link_traversals);
    if (self->handlers != NULL)
        for (long i = 0; i < self->ntiles; i++)
            Py_VISIT(self->handlers[i]);
    if (self->cat_objs != NULL)
        for (long i = 0; i < self->n_cats; i++)
            Py_VISIT(self->cat_objs[i]);
    return 0;
}

static int
cmesh_clear_gc(CMeshCore *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->per_cat);
    Py_CLEAR(self->byte_hops);
    Py_CLEAR(self->link_traversals);
    if (self->handlers != NULL)
        for (long i = 0; i < self->ntiles; i++)
            Py_CLEAR(self->handlers[i]);
    if (self->cat_objs != NULL)
        for (long i = 0; i < self->n_cats; i++)
            Py_CLEAR(self->cat_objs[i]);
    return 0;
}

static void
cmesh_dealloc(CMeshCore *self)
{
    PyObject_GC_UnTrack(self);
    cmesh_clear_gc(self);
    PyMem_Free(self->handlers);
    PyMem_Free(self->next_free);
    PyMem_Free(self->carried);
    PyMem_Free(self->cat_objs);
    PyMem_Free(self->cat_sw);
    PyMem_Free(self->cat_msgs);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef cmesh_methods[] = {
    {"register", (PyCFunction)cmesh_register, METH_VARARGS,
     "Attach the message handler for a tile (one per tile)."},
    {"send", (PyCFunction)cmesh_send, METH_O,
     "Inject a message; returns the delivery cycle."},
    {"carried_list", (PyCFunction)cmesh_carried_list, METH_NOARGS,
     "Bytes carried per link, indexed dir*(w*h) + y*w + x."},
    {"flush_traffic", (PyCFunction)cmesh_flush_traffic, METH_NOARGS,
     "Fold the C-side traffic sums into the TrafficMeter counters."},
    {NULL}
};

static PyTypeObject MeshCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.MeshCore",
    .tp_basicsize = sizeof(CMeshCore),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled XY-routing/link-reservation core for Mesh.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)cmesh_init,
    .tp_dealloc = (destructor)cmesh_dealloc,
    .tp_traverse = (traverseproc)cmesh_traverse,
    .tp_clear = (inquiry)cmesh_clear_gc,
    .tp_methods = cmesh_methods,
};

/* ------------------------------------------------------------------ */
/* The MESI transition table and its interpreter                       */
/* ------------------------------------------------------------------ */

/* repro.mem.protocol hands its rows to configure_protocol once, at its
 * import: (controller, state, event) -> (((action, argument), ...), next
 * state).  Each action of L1Cache.ACTIONS and L2DirectorySlice.ACTIONS
 * is one opcode here, as it is one statement there; a row is its
 * opcodes and its next state, and the controllers index the rows by
 * state and event number.  What a controller does around the rows --
 * which event a message is, the directory's first step and resumes,
 * entering the next state -- mirrors repro.mem.l1 and repro.mem.l2dir
 * line for line. */

enum { R_L1, R_DIR, N_ROLES };
static const char *role_names[N_ROLES] = {"L1", "dir"};

#define ARG_NONE  0   /* the argument is the row's next state, unused */
#define ARG_KIND  1   /* a message kind */
#define ARG_STATE 2   /* an L1 state, stored as the tag */

typedef struct {
    const char *name;
    int arg;
} ActionSpec;

enum {
    A_SEND, A_WRITEBACK, A_RECALL, A_ABSENT, A_WAKE, A_INVALIDATE,
    A_DOWNGRADE, A_C2C, A_FILL, A_GRANT, A_DONE
};
static const ActionSpec l1_actions[] = {
    {"send", ARG_KIND}, {"writeback", ARG_NONE}, {"recall", ARG_KIND},
    {"absent", ARG_NONE}, {"wake", ARG_NONE}, {"invalidate", ARG_NONE},
    {"downgrade", ARG_NONE}, {"c2c", ARG_STATE}, {"fill", ARG_STATE},
    {"grant", ARG_STATE}, {"done", ARG_NONE}, {NULL, 0},
};

enum {
    D_ACCEPT, D_QUEUE, D_FORWARD, D_INVALIDATE, D_ACK, D_CLEAR, D_RESUME,
    D_NOTE_UNBLOCK, D_USE_UNBLOCK, D_WRITEBACK, D_DISOWN, D_SHARE_C2C,
    D_SHARE, D_OWN, D_REPLY, D_DELAY, D_READ, D_INSTALL
};
static const ActionSpec dir_actions[] = {
    {"accept", ARG_NONE}, {"queue", ARG_NONE}, {"forward", ARG_KIND},
    {"invalidate", ARG_NONE}, {"ack", ARG_NONE}, {"clear", ARG_NONE},
    {"resume", ARG_NONE}, {"note_unblock", ARG_NONE},
    {"use_unblock", ARG_NONE}, {"writeback", ARG_NONE},
    {"disown", ARG_NONE}, {"share_c2c", ARG_NONE}, {"share", ARG_NONE},
    {"own", ARG_NONE}, {"reply", ARG_KIND}, {"delay", ARG_NONE},
    {"read", ARG_NONE}, {"install", ARG_NONE}, {NULL, 0},
};

static const ActionSpec *role_actions[N_ROLES] = {l1_actions, dir_actions};

#define MAX_ACTIONS 8

typedef struct {
    int defined;
    int n_ops;
    int op[MAX_ACTIONS];
    int arg[MAX_ACTIONS];     /* kind or state number, per ActionSpec */
    int nxt;
    PyObject *seen;           /* (state, event, next), for an observer */
} CRow;

typedef struct {
    PyObject *states, *events;        /* lists of interned names */
    PyObject *state_ix, *event_ix;    /* name -> number */
    int n_states, n_events;
    CRow *rows;                       /* [state * n_events + event] */
    char *mark;                       /* per state: transient L1 state,
                                         or idle directory state */
    int kind_event[N_KINDS];          /* the event a message kind is */
} CRole;

static CRole roles[N_ROLES];

/* the events and states the controllers name themselves */
static int ev_load, ev_store, ev_replacement;
static int ev_stale_ack, ev_last_ack, ev_resume_evicted;
static int ev_non_owner[N_KINDS];     /* "WBData from a non-owner", ... */
static int ev_at[3][3];               /* GetS/GetM/Upgrade x @EM/@S/@I */
static int ev_resume[3], ev_resume_unblock[3];
static int st_l1_i, st_l1_s, st_dir_i, st_dir_fwd_done;

#define ROW(role, state, event) \
    (&roles[role].rows[(state) * roles[role].n_events + (event)])
#define STATE_NAME(role, i) PyList_GET_ITEM(roles[role].states, (i))
#define EVENT_NAME(role, i) PyList_GET_ITEM(roles[role].events, (i))

/* the number of a name in (list, index), added when new; -1 on error */
static int
name_number(PyObject *list, PyObject *index, PyObject *name)
{
    PyObject *num = PyDict_GetItemWithError(index, name);
    if (num != NULL)
        return (int)PyLong_AsLong(num);
    if (PyErr_Occurred() || !PyUnicode_Check(name)) {
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_TypeError, "protocol name %R is no str",
                         name);
        return -1;
    }
    Py_INCREF(name);
    PyUnicode_InternInPlace(&name);
    Py_ssize_t n = PyList_GET_SIZE(list);
    num = PyLong_FromSsize_t(n);
    int rc = num == NULL || PyDict_SetItem(index, name, num) < 0
             || PyList_Append(list, name) < 0 ? -1 : (int)n;
    Py_XDECREF(num);
    Py_DECREF(name);
    return rc;
}

static int
state_number(int role, PyObject *name)
{
    return name_number(roles[role].states, roles[role].state_ix, name);
}

static int
event_number(int role, PyObject *name)
{
    return name_number(roles[role].events, roles[role].event_ix, name);
}

/* the number of a formatted event name */
static int
event_named(int role, const char *format, ...)
{
    va_list va;
    va_start(va, format);
    PyObject *name = PyUnicode_FromFormatV(format, va);
    va_end(va);
    if (name == NULL)
        return -1;
    int n = event_number(role, name);
    Py_DECREF(name);
    return n;
}

static void
roles_free(void)
{
    for (int r = 0; r < N_ROLES; r++) {
        CRole *R = &roles[r];
        if (R->rows != NULL)
            for (int i = 0; i < R->n_states * R->n_events; i++)
                Py_XDECREF(R->rows[i].seen);
        PyMem_Free(R->rows);
        PyMem_Free(R->mark);
        Py_CLEAR(R->states);
        Py_CLEAR(R->events);
        Py_CLEAR(R->state_ix);
        Py_CLEAR(R->event_ix);
        memset(R, 0, sizeof(*R));
    }
}

/* which role a program key names */
static int
role_number(PyObject *name)
{
    for (int r = 0; r < N_ROLES; r++)
        if (PyUnicode_Check(name)
                && PyUnicode_CompareWithASCIIString(name, role_names[r]) == 0)
            return r;
    PyErr_Format(PyExc_ValueError, "unknown protocol controller %R", name);
    return -1;
}

/* register the names of one program row; with fill, also store it */
static int
program_row(PyObject *key, PyObject *value, int fill)
{
    PyObject *pairs, *nxt_name;
    if (!PyTuple_Check(key) || PyTuple_GET_SIZE(key) != 3
            || !PyArg_ParseTuple(value, "OO", &pairs, &nxt_name)
            || !PyTuple_Check(pairs)) {
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_ValueError, "malformed protocol row %R", key);
        return -1;
    }
    int role = role_number(PyTuple_GET_ITEM(key, 0));
    if (role < 0)
        return -1;
    int state = state_number(role, PyTuple_GET_ITEM(key, 1));
    int event = event_number(role, PyTuple_GET_ITEM(key, 2));
    int nxt = state_number(role, nxt_name);
    if (state < 0 || event < 0 || nxt < 0)
        return -1;
    Py_ssize_t n = PyTuple_GET_SIZE(pairs);
    if (n > MAX_ACTIONS) {
        PyErr_Format(PyExc_ValueError, "protocol row %R has %zd actions",
                     key, n);
        return -1;
    }
    CRow row = {1, (int)n, {0}, {0}, nxt, NULL};
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *name, *arg;
        if (!PyArg_ParseTuple(PyTuple_GET_ITEM(pairs, i), "UU", &name, &arg))
            return -1;
        const ActionSpec *spec = role_actions[role];
        int op = 0;
        while (spec[op].name != NULL
               && PyUnicode_CompareWithASCIIString(name, spec[op].name))
            op++;
        if (spec[op].name == NULL) {
            PyErr_Format(PyExc_ValueError, "the compiled %s controller has "
                         "no action %R", role_names[role], name);
            return -1;
        }
        row.op[i] = op;
        if (spec[op].arg == ARG_KIND) {
            row.arg[i] = kind_index(arg);
            if (row.arg[i] < 0) {
                PyErr_Format(PyExc_ValueError, "%U: unknown kind %R", name,
                             arg);
                return -1;
            }
        }
        else if (spec[op].arg == ARG_STATE) {
            row.arg[i] = state_number(R_L1, arg);
            if (row.arg[i] < 0)
                return -1;
        }
    }
    if (!fill)
        return 0;
    CRow *slot = ROW(role, state, event);
    if (slot->defined) {
        PyErr_Format(PyExc_ValueError, "duplicate protocol row %R", key);
        return -1;
    }
    row.seen = PyTuple_Pack(3, STATE_NAME(role, state),
                            EVENT_NAME(role, event), STATE_NAME(role, nxt));
    if (row.seen == NULL)
        return -1;
    *slot = row;
    return 0;
}

/* mark the states named in `names` (transient L1 / idle directory) */
static int
mark_states(int role, PyObject *names)
{
    PyObject *seq = PySequence_Fast(names, "protocol states");
    if (seq == NULL)
        return -1;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
        int s = state_number(role, PySequence_Fast_GET_ITEM(seq, i));
        if (s < 0 || s >= roles[role].n_states) {
            Py_DECREF(seq);
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_ValueError, "%s state %R takes no row",
                             role_names[role],
                             PySequence_Fast_GET_ITEM(seq, i));
            return -1;
        }
        roles[role].mark[s] = 1;
    }
    Py_DECREF(seq);
    return 0;
}

static int
configure_names(PyObject *category, PyObject *carries)
{
    if (PyDict_Size(category) != N_KINDS) {
        PyErr_Format(PyExc_ValueError, "the compiled controllers know %d "
                     "message kinds, the protocol has %zd", N_KINDS,
                     PyDict_Size(category));
        return -1;
    }
    for (int k = 0; k < N_KINDS; k++) {
        PyObject *cat = PyDict_GetItemWithError(category, kind_obj[k]);
        if (cat == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetObject(PyExc_KeyError, kind_obj[k]);
            return -1;
        }
        int data = PySequence_Contains(carries, kind_obj[k]);
        if (data < 0)
            return -1;
        Py_XSETREF(kind_cat[k], Py_NewRef(cat));
        kind_data[k] = data;
    }
    for (int r = 0; r < N_ROLES; r++) {
        CRole *R = &roles[r];
        if ((R->states = PyList_New(0)) == NULL
                || (R->events = PyList_New(0)) == NULL
                || (R->state_ix = PyDict_New()) == NULL
                || (R->event_ix = PyDict_New()) == NULL)
            return -1;
        for (int k = 0; k < N_KINDS; k++)
            if ((R->kind_event[k] = event_number(r, kind_obj[k])) < 0)
                return -1;
    }
    static const char *requests[3] = {"GetS", "GetM", "Upgrade"};
    static const char *at[3] = {"EM", "S", "I"};
    if ((ev_load = event_named(R_L1, "Load")) < 0
            || (ev_store = event_named(R_L1, "Store")) < 0
            || (ev_replacement = event_named(R_L1, "Replacement")) < 0
            || (ev_stale_ack = event_named(R_DIR, "StaleAck")) < 0
            || (ev_last_ack = event_named(R_DIR, "LastInvAck")) < 0
            || (ev_resume_evicted = event_named(R_DIR, "resume.Evicted")) < 0)
        return -1;
    for (int q = 0; q < 3; q++) {
        for (int a = 0; a < 3; a++)
            if ((ev_at[q][a] = event_named(R_DIR, "%s@%s", requests[q],
                                           at[a])) < 0)
                return -1;
        if ((ev_resume[q] = event_named(R_DIR, "resume.%s", requests[q])) < 0
                || (ev_resume_unblock[q] = event_named(
                        R_DIR, "resume.%s+Unblock", requests[q])) < 0)
            return -1;
    }
    for (int k = 0; k < N_KINDS; k++)
        if ((ev_non_owner[k] = event_named(R_DIR, "%s from a non-owner",
                                           kind_names[k])) < 0)
            return -1;
    PyObject *i = PyUnicode_FromString("I"), *s = PyUnicode_FromString("S");
    PyObject *fd = PyUnicode_FromString("FwdDone");
    if (i != NULL && s != NULL && fd != NULL) {
        st_l1_i = state_number(R_L1, i);
        st_l1_s = state_number(R_L1, s);
        st_dir_i = state_number(R_DIR, i);
        st_dir_fwd_done = state_number(R_DIR, fd);
    }
    Py_XDECREF(i);
    Py_XDECREF(s);
    Py_XDECREF(fd);
    return i == NULL || s == NULL || fd == NULL || st_l1_i < 0
           || st_l1_s < 0 || st_dir_i < 0 || st_dir_fwd_done < 0 ? -1 : 0;
}

static PyObject *
ck_configure_protocol(PyObject *mod, PyObject *args)
{
    PyObject *category, *carries, *program, *transient, *idle;
    if (!PyArg_ParseTuple(args, "O!OO!OO:configure_protocol", &PyDict_Type,
                          &category, &carries, &PyDict_Type, &program,
                          &transient, &idle))
        return NULL;
    roles_free();
    if (configure_names(category, carries) < 0)
        goto fail;
    PyObject *key, *value;
    Py_ssize_t pos = 0;
    while (PyDict_Next(program, &pos, &key, &value))
        if (program_row(key, value, 0) < 0)
            goto fail;
    for (int r = 0; r < N_ROLES; r++) {
        CRole *R = &roles[r];
        R->n_states = (int)PyList_GET_SIZE(R->states);
        R->n_events = (int)PyList_GET_SIZE(R->events);
        R->rows = PyMem_Calloc((size_t)R->n_states * R->n_events,
                               sizeof(CRow));
        R->mark = PyMem_Calloc((size_t)R->n_states, 1);
        if (R->rows == NULL || R->mark == NULL) {
            PyErr_NoMemory();
            goto fail;
        }
    }
    pos = 0;
    while (PyDict_Next(program, &pos, &key, &value))
        if (program_row(key, value, 1) < 0)
            goto fail;
    if (mark_states(R_L1, transient) < 0 || mark_states(R_DIR, idle) < 0)
        goto fail;
    Py_RETURN_NONE;
fail:
    roles_free();
    return NULL;
}

static PyObject *
ck_protocol_program(PyObject *mod, PyObject *Py_UNUSED(ignored))
{
    /* the configured rows, decoded: what each opcode and argument number
     * stands for, in configure_protocol's format */
    PyObject *program = PyDict_New();
    if (program == NULL)
        return NULL;
    for (int r = 0; r < N_ROLES; r++)
        for (int s = 0; s < roles[r].n_states; s++)
            for (int e = 0; e < roles[r].n_events; e++) {
                CRow *row = ROW(r, s, e);
                if (!row->defined)
                    continue;
                PyObject *nxt = STATE_NAME(r, row->nxt);
                PyObject *pairs = PyTuple_New(row->n_ops);
                if (pairs == NULL)
                    goto fail;
                for (int i = 0; i < row->n_ops; i++) {
                    const ActionSpec *spec = &role_actions[r][row->op[i]];
                    PyObject *arg = spec->arg == ARG_KIND
                        ? kind_obj[row->arg[i]]
                        : spec->arg == ARG_STATE
                        ? STATE_NAME(R_L1, row->arg[i]) : nxt;
                    PyObject *pair = Py_BuildValue("(sO)", spec->name, arg);
                    if (pair == NULL) {
                        Py_DECREF(pairs);
                        goto fail;
                    }
                    PyTuple_SET_ITEM(pairs, i, pair);
                }
                PyObject *k = Py_BuildValue("(sOO)", role_names[r],
                                            STATE_NAME(r, s),
                                            EVENT_NAME(r, e));
                PyObject *v = Py_BuildValue("(NO)", pairs, nxt);
                int rc = k == NULL || v == NULL
                         || PyDict_SetItem(program, k, v) < 0;
                Py_XDECREF(k);
                Py_XDECREF(v);
                if (rc)
                    goto fail;
            }
    return program;
fail:
    Py_DECREF(program);
    return NULL;
}

/* "<who> <id>: no transition for 0x.. in <state> on <event>" */
static int
no_row(const char *who, long id, PyObject *line, PyObject *state,
       PyObject *event)
{
    PyObject *hex = PyNumber_ToBase(line, 16);
    if (hex != NULL) {
        PyErr_Format(PyExc_RuntimeError, "%s %ld: no transition for %U in "
                     "%U on %U", who, id, hex, state, event);
        Py_DECREF(hex);
    }
    return -1;
}

/* tell an observer (the sanitizer) the row just taken */
static inline int
observe(PyObject *observer, PyObject *owner, PyObject *line, PyObject *msg,
        PyObject *seen)
{
    if (observer == NULL || observer == Py_None)
        return 0;
    PyObject *r = PyObject_CallFunctionObjArgs(
        observer, owner, line, msg == NULL ? Py_None : msg, seen, NULL);
    Py_XDECREF(r);
    return r == NULL ? -1 : 0;
}

static int
fire_signal(PyObject *sig, PyObject *value)
{
    if (Py_IS_TYPE(sig, &Signal_Type))
        return csignal_fire_impl((CSignal *)sig, value);
    PyObject *r = PyObject_CallMethod(sig, "fire", "O", value);
    Py_XDECREF(r);
    return r == NULL ? -1 : 0;
}

/* ------------------------------------------------------------------ */
/* L1Core: an L1Cache's rows (repro.mem.l1)                            */
/* ------------------------------------------------------------------ */

enum { L1_WRITEBACKS, L1_C2C, N_L1_COUNTERS };
static const char *l1_counter_names[N_L1_COUNTERS] = {
    "l1.writebacks", "l1.c2c_transfers",
};

typedef struct {
    PyObject_HEAD
    PyObject *owner;          /* the L1Cache: __self__, as for a bound
                                 method, so profiles name the L1Cache */
    CSimulator *sim;
    CMeshCore *mesh;
    CTagArray *tags;
    PyObject *fill;           /* Signal: a reply installed the line */
    PyObject *watches;        /* line -> Signal of spin_until sleepers */
    PyObject *counter_set;    /* CounterSet */
    PyObject *counters[N_L1_COUNTERS];   /* bound on first use */
    PyObject *observer;
    long id, n_tiles;
    long long line_bytes;
    long data_bytes, control_bytes;
    int has_pending;          /* the outstanding miss: line and state */
    long long pending_line;
    int pending_state;
} CL1Core;

/* the L1 state of a tag (NULL: I); -1 with an error for no L1 state */
static int
l1_state_of(PyObject *tag)
{
    if (tag == NULL)
        return PyErr_Occurred() ? -1 : st_l1_i;
    CRole *R = &roles[R_L1];
    for (int s = 0; s < R->n_states; s++)
        if (PyList_GET_ITEM(R->states, s) == tag)
            return s;
    for (int s = 0; s < R->n_states; s++)
        if (PyUnicode_Check(tag)
                && PyUnicode_Compare(PyList_GET_ITEM(R->states, s), tag) == 0)
            return s;
    PyErr_Format(PyExc_RuntimeError, "L1 tag %R is no L1 state", tag);
    return -1;
}

static inline int
l1_send(CL1Core *c, long dst, int k, PyObject *line, PyObject *key,
        PyObject *extra)
{
    return cmesh_send_kind(c->mesh, c->id, dst, k,
                           kind_data[k] ? c->data_bytes : c->control_bytes,
                           line, key, extra);
}

static int l1_take(CL1Core *c, PyObject *line, long long lv, int state,
                   int event, PyObject *msg);

static int bump(PyObject *counter_set, PyObject **bound, const char *name,
                long long n);

static inline int
l1_count(CL1Core *c, int i)
{
    return bump(c->counter_set, &c->counters[i], l1_counter_names[i], 1);
}

static int
l1_fill(CL1Core *c, PyObject *line, long long lv, int state)
{
    PyObject *victim, *vstate;
    if (tags_insert(c->tags, line, lv, STATE_NAME(R_L1, state), NULL, NULL,
                    &victim, &vstate) < 0)
        return -1;
    if (victim == NULL)
        return 0;
    int rc = -1;
    long long vlv = PyLong_AsLongLong(victim);
    int vs = l1_state_of(vstate);
    if (!(vlv == -1 && PyErr_Occurred()) && vs >= 0)
        rc = l1_take(c, victim, vlv, vs, ev_replacement, NULL);
    Py_DECREF(victim);
    Py_DECREF(vstate);
    return rc;
}

static int
l1_c2c(CL1Core *c, PyObject *line, PyObject *msg, int grant)
{
    if (msg == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "c2c needs a forward");
        return -1;
    }
    PyObject *requester = msg_extra(msg, str_requester);
    if (requester == NULL)
        return -1;
    long dst = PyLong_AsLong(requester);
    Py_DECREF(requester);
    if ((dst == -1 && PyErr_Occurred()) || l1_count(c, L1_C2C) < 0)
        return -1;
    return l1_send(c, dst, K_DATA_C2C, line, str_grant,
                   STATE_NAME(R_L1, grant));
}

static int
l1_take(CL1Core *c, PyObject *line, long long lv, int state, int event,
        PyObject *msg)
{
    CRow *row = ROW(R_L1, state, event);
    if (!row->defined)
        return no_row("L1", c->id, line, STATE_NAME(R_L1, state),
                      EVENT_NAME(R_L1, event));
    long home = (long)(lv / c->line_bytes % c->n_tiles);
    for (int i = 0; i < row->n_ops; i++) {
        int arg = row->arg[i], rc = 0;
        PyObject *old;
        switch (row->op[i]) {
        case A_SEND:
            rc = l1_send(c, home, arg, line, NULL, Py_None);
            break;
        case A_WRITEBACK:
            rc = l1_count(c, L1_WRITEBACKS) < 0 ? -1
                 : l1_send(c, home, K_WB_DATA, line, NULL, Py_None);
            break;
        case A_RECALL:
            rc = l1_send(c, home, arg, line, str_present, Py_True);
            break;
        case A_ABSENT:
            rc = l1_send(c, home, K_RECALL_ACK, line, str_present, Py_False);
            break;
        case A_WAKE:
            old = PyDict_GetItemWithError(c->watches, line);
            rc = old != NULL ? fire_signal(old, Py_None)
                 : PyErr_Occurred() ? -1 : 0;
            break;
        case A_INVALIDATE:
            old = tags_drop(c->tags, line, lv);
            rc = old == NULL && PyErr_Occurred() ? -1 : 0;
            Py_XDECREF(old);
            break;
        case A_DOWNGRADE:
            rc = tags_set(c->tags, line, lv, STATE_NAME(R_L1, st_l1_s));
            break;
        case A_C2C:
            rc = l1_c2c(c, line, msg, arg);
            break;
        case A_FILL:
            rc = l1_fill(c, line, lv, arg);
            break;
        case A_GRANT:
            rc = tags_set(c->tags, line, lv, STATE_NAME(R_L1, arg)) < 0
                 ? -1 : tags_touch(c->tags, line, lv);
            break;
        case A_DONE:
            rc = fire_signal(c->fill, msg == NULL ? Py_None : msg);
            break;
        }
        if (rc < 0)
            return -1;
    }
    if (observe(c->observer, c->owner, line, msg, row->seen) < 0)
        return -1;
    /* L1Cache.enter: the outstanding miss holds the transient state */
    int nxt = row->nxt;
    char *transient = roles[R_L1].mark;
    if (!transient[nxt]) {
        if (transient[state])
            c->has_pending = 0;
    }
    else {
        if (!transient[state]) {
            c->has_pending = 1;
            c->pending_line = lv;
        }
        if (nxt != state)
            c->pending_state = nxt;
    }
    return 0;
}

static int
l1_receive(PyObject *core, PyObject *msg)
{
    CL1Core *c = (CL1Core *)core;
    PyObject *kind;
    long src;
    int k = msg_kind(msg, &kind, &src);
    if (k == -2)
        return -1;
    int rc = -1;
    PyObject *line = msg_line(msg);
    long long lv = line == NULL ? -1 : PyLong_AsLongLong(line);
    if (!PyErr_Occurred()) {
        int state = c->has_pending && lv == c->pending_line
                    ? c->pending_state
                    : l1_state_of(tags_get(c->tags, line, lv));
        if (state >= 0)
            rc = k < 0 ? no_row("L1", c->id, line, STATE_NAME(R_L1, state),
                                kind)
                 : l1_take(c, line, lv, state, roles[R_L1].kind_event[k],
                           msg);
    }
    Py_XDECREF(line);
    Py_DECREF(kind);
    return rc;
}

static PyObject *
l1core_call(CL1Core *self, PyObject *args, PyObject *kwds)
{
    PyObject *msg;
    if (!PyArg_ParseTuple(args, "O:receive", &msg)
            || l1_receive((PyObject *)self, msg) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
l1core_start(CL1Core *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* start(line, want_m): the miss's row, from L1Cache._miss */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "start expected 2 arguments");
        return NULL;
    }
    PyObject *line = args[0];
    long long lv = PyLong_AsLongLong(line);
    int want_m = PyObject_IsTrue(args[1]);
    if ((lv == -1 && PyErr_Occurred()) || want_m < 0)
        return NULL;
    if (self->has_pending) {
        PyObject *hex = PyNumber_ToBase(line, 16);
        if (hex != NULL) {
            PyErr_Format(PyExc_RuntimeError, "L1 %ld: second outstanding "
                         "miss on line %U (cores are in-order)", self->id,
                         hex);
            Py_DECREF(hex);
        }
        return NULL;
    }
    int state = l1_state_of(tags_get(self->tags, line, lv));
    if (state < 0 || l1_take(self, line, lv, state,
                             want_m ? ev_store : ev_load, NULL) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* *bound += n, *bound being the CounterSet's counter `name`: bound on
 * first use, as most of a large chip's controllers never count */
static int
bump(PyObject *counter_set, PyObject **bound, const char *name,
     long long n)
{
    if (*bound == NULL
            && (*bound = PyObject_CallMethod(counter_set, "bind", "s",
                                             name)) == NULL)
        return -1;
    return counter_iadd(*bound, n);
}

/* noc.data_msg_bytes and noc.control_msg_bytes */
static int
message_sizes(PyObject *noc, long *data, long *control)
{
    PyObject *d = PyObject_GetAttr(noc, str_data_bytes);
    PyObject *c = d == NULL ? NULL : PyObject_GetAttr(noc, str_control_bytes);
    if (c != NULL) {
        *data = PyLong_AsLong(d);
        *control = PyLong_AsLong(c);
    }
    Py_XDECREF(d);
    Py_XDECREF(c);
    return c == NULL || PyErr_Occurred() ? -1 : 0;
}

static int
l1core_init(CL1Core *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"owner", "mesh", "tags", "fill", "watches",
                             "counters", "core_id", "n_tiles", "line_bytes",
                             "noc", NULL};
    PyObject *owner, *mesh, *tags, *fill, *watches, *counters, *noc;
    long id, n_tiles;
    long long line_bytes;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "OO!O!OO!OllLO:L1Core", kwlist, &owner,
            &MeshCore_Type, &mesh, &TagArray_Type, &tags, &fill,
            &PyDict_Type, &watches, &counters, &id, &n_tiles, &line_bytes,
            &noc))
        return -1;
    if (roles[R_L1].rows == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "configure_protocol was never called");
        return -1;
    }
    if (n_tiles <= 0 || line_bytes <= 0) {
        PyErr_SetString(PyExc_ValueError, "invalid L1 geometry");
        return -1;
    }
    if (message_sizes(noc, &self->data_bytes, &self->control_bytes) < 0)
        return -1;
    Py_XSETREF(self->owner, Py_NewRef(owner));
    Py_XSETREF(self->mesh, (CMeshCore *)Py_NewRef(mesh));
    Py_XSETREF(self->sim, (CSimulator *)Py_NewRef(self->mesh->sim));
    Py_XSETREF(self->tags, (CTagArray *)Py_NewRef(tags));
    Py_XSETREF(self->fill, Py_NewRef(fill));
    Py_XSETREF(self->watches, Py_NewRef(watches));
    Py_XSETREF(self->counter_set, Py_NewRef(counters));
    self->id = id;
    self->n_tiles = n_tiles;
    self->line_bytes = line_bytes;
    self->has_pending = 0;
    return 0;
}

static int
l1core_traverse(CL1Core *self, visitproc visit, void *arg)
{
    Py_VISIT(self->owner);
    Py_VISIT(self->sim);
    Py_VISIT(self->mesh);
    Py_VISIT(self->tags);
    Py_VISIT(self->fill);
    Py_VISIT(self->watches);
    Py_VISIT(self->counter_set);
    for (int i = 0; i < N_L1_COUNTERS; i++)
        Py_VISIT(self->counters[i]);
    Py_VISIT(self->observer);
    return 0;
}

static int
l1core_clear(CL1Core *self)
{
    Py_CLEAR(self->owner);
    Py_CLEAR(self->sim);
    Py_CLEAR(self->mesh);
    Py_CLEAR(self->tags);
    Py_CLEAR(self->fill);
    Py_CLEAR(self->watches);
    Py_CLEAR(self->counter_set);
    for (int i = 0; i < N_L1_COUNTERS; i++)
        Py_CLEAR(self->counters[i]);
    Py_CLEAR(self->observer);
    return 0;
}

static void
l1core_dealloc(CL1Core *self)
{
    PyObject_GC_UnTrack(self);
    l1core_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef l1core_methods[] = {
    {"start", (PyCFunction)l1core_start, METH_FASTCALL,
     "Start a miss: take the Load or Store row of the line's state."},
    {NULL}
};

static PyMemberDef l1core_members[] = {
    {"__self__", T_OBJECT, offsetof(CL1Core, owner), READONLY, NULL},
    {"observer", T_OBJECT, offsetof(CL1Core, observer), 0,
     "Called as observer(l1, line, msg, (state, event, next)) after "
     "each row's actions (None: not called)."},
    {NULL}
};

static PyTypeObject L1Core_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.L1Core",
    .tp_basicsize = sizeof(CL1Core),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The L1 rows of the MESI table, run for one L1Cache; "
              "calling it delivers a message.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)l1core_init,
    .tp_dealloc = (destructor)l1core_dealloc,
    .tp_traverse = (traverseproc)l1core_traverse,
    .tp_clear = (inquiry)l1core_clear,
    .tp_call = (ternaryfunc)l1core_call,
    .tp_methods = l1core_methods,
    .tp_members = l1core_members,
};

/* ------------------------------------------------------------------ */
/* DirCore: an L2DirectorySlice's rows (repro.mem.l2dir)               */
/* ------------------------------------------------------------------ */

/* repro.mem.l2dir.DirEntry: one line's directory state */
typedef struct {
    long long line;
    PyObject *line_obj;
    int state;
    int kind;                 /* the request in flight; -1 = none */
    int requester;            /* -1 = none */
    int owner;                /* -1 = None */
    int pending_acks;
    int unblocked;
    int n_sharers;
    PyObject **queue;         /* ring of queued requests */
    int q_head, q_len, q_cap;
    unsigned long long sharers[];   /* bit per tile */
} CDirEntry;

enum {
    C_ACCESSES, C_DATA_ACCESSES, C_FORWARDS, C_MISSES, C_MEM_READS,
    C_EVICTIONS, C_MEM_WRITES, C_INVALIDATIONS, N_DIR_COUNTERS
};
static const char *dir_counter_names[N_DIR_COUNTERS] = {
    "l2.accesses", "l2.data_accesses", "l2.forwards", "l2.misses",
    "mem.reads", "l2.evictions", "mem.writes", "l2.invalidations",
};

typedef struct {
    PyObject_HEAD
    PyObject *owner;          /* the L2DirectorySlice (__self__) */
    CSimulator *sim;
    CMeshCore *mesh;
    CTagArray *tags;
    PyObject *observer;
    PyObject *counter_set;    /* CounterSet */
    PyObject *counters[N_DIR_COUNTERS];  /* bound on first use */
    long id, n_tiles, words;
    long long l2_latency, memory_latency, dir_latency;
    int mesi;
    long data_bytes, control_bytes;
    CDirEntry **slots;        /* open addressing by line; NULL = free */
    size_t cap, count;
} CDirCore;

static inline size_t
dir_slot(long long line, size_t cap)
{
    return (size_t)(((unsigned long long)line * 0x9E3779B97F4A7C15ULL)
                    >> 32) & (cap - 1);
}

static CDirEntry *
dir_find(CDirCore *d, long long line)
{
    if (d->cap == 0)
        return NULL;
    for (size_t i = dir_slot(line, d->cap);; i = (i + 1) & (d->cap - 1)) {
        CDirEntry *e = d->slots[i];
        if (e == NULL || e->line == line)
            return e;
    }
}

static void
dir_place(CDirEntry **slots, size_t cap, CDirEntry *e)
{
    size_t i = dir_slot(e->line, cap);
    while (slots[i] != NULL)
        i = (i + 1) & (cap - 1);
    slots[i] = e;
}

/* the line's entry, made in state I when it has none */
static CDirEntry *
dir_get(CDirCore *d, PyObject *line, long long lv)
{
    CDirEntry *e = dir_find(d, lv);
    if (e != NULL)
        return e;
    if ((d->count + 1) * 2 > d->cap) {
        size_t cap = d->cap ? d->cap * 2 : 64;
        CDirEntry **slots = PyMem_Calloc(cap, sizeof(CDirEntry *));
        if (slots == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        for (size_t i = 0; i < d->cap; i++)
            if (d->slots[i] != NULL)
                dir_place(slots, cap, d->slots[i]);
        PyMem_Free(d->slots);
        d->slots = slots;
        d->cap = cap;
    }
    e = PyMem_Calloc(1, sizeof(CDirEntry)
                        + (size_t)d->words * sizeof(unsigned long long));
    if (e == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    e->line = lv;
    e->line_obj = Py_NewRef(line);
    e->state = st_dir_i;
    e->kind = e->requester = e->owner = -1;
    dir_place(d->slots, d->cap, e);
    d->count++;
    return e;
}

static void
dir_entry_free(CDirEntry *e)
{
    Py_DECREF(e->line_obj);
    for (int i = 0; i < e->q_len; i++)
        Py_DECREF(e->queue[(e->q_head + i) % e->q_cap]);
    PyMem_Free(e->queue);
    PyMem_Free(e);
}

/* drop a line's entry (the L2 evicted it) */
static void
dir_remove(CDirCore *d, long long line)
{
    if (d->cap == 0)
        return;
    size_t mask = d->cap - 1, i = dir_slot(line, d->cap);
    while (d->slots[i] != NULL && d->slots[i]->line != line)
        i = (i + 1) & mask;
    if (d->slots[i] == NULL)
        return;
    dir_entry_free(d->slots[i]);
    d->slots[i] = NULL;
    d->count--;
    /* shift back the entries of the probe run behind the hole */
    for (size_t j = (i + 1) & mask; d->slots[j] != NULL; j = (j + 1) & mask) {
        size_t home = dir_slot(d->slots[j]->line, d->cap);
        if (((j - home) & mask) >= ((j - i) & mask)) {
            d->slots[i] = d->slots[j];
            d->slots[j] = NULL;
            i = j;
        }
    }
}

static inline int
is_sharer(CDirCore *d, CDirEntry *e, int tile)
{
    return tile >= 0 && tile < d->n_tiles
           && (e->sharers[tile >> 6] >> (tile & 63)) & 1;
}

static int
add_sharer(CDirCore *d, CDirEntry *e, int tile)
{
    if (tile < 0 || tile >= d->n_tiles) {
        PyErr_Format(PyExc_ValueError, "home %ld: sharer %d outside the "
                     "mesh", d->id, tile);
        return -1;
    }
    if (!is_sharer(d, e, tile)) {
        e->sharers[tile >> 6] |= 1ULL << (tile & 63);
        e->n_sharers++;
    }
    return 0;
}

static int
queue_push(CDirEntry *e, PyObject *msg)
{
    if (e->q_len == e->q_cap) {
        int cap = e->q_cap ? e->q_cap * 2 : 4;
        PyObject **q = PyMem_Malloc((size_t)cap * sizeof(PyObject *));
        if (q == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (int i = 0; i < e->q_len; i++)
            q[i] = e->queue[(e->q_head + i) % e->q_cap];
        PyMem_Free(e->queue);
        e->queue = q;
        e->q_cap = cap;
        e->q_head = 0;
    }
    e->queue[(e->q_head + e->q_len++) % e->q_cap] = Py_NewRef(msg);
    return 0;
}

static inline int
dir_count(CDirCore *d, int i, long long n)
{
    return bump(d->counter_set, &d->counters[i], dir_counter_names[i], n);
}

static inline int
dir_send(CDirCore *d, long dst, int k, PyObject *line, PyObject *key,
         PyObject *extra)
{
    return cmesh_send_kind(d->mesh, d->id, dst, k,
                           kind_data[k] ? d->data_bytes : d->control_bytes,
                           line, key, extra);
}

static int dir_take(CDirCore *d, CDirEntry *e, int event, PyObject *msg);

/* invalidate every sharer but the requester */
static int
dir_invalidate(CDirCore *d, CDirEntry *e)
{
    int others = e->n_sharers - is_sharer(d, e, e->requester);
    if (dir_count(d, C_INVALIDATIONS, others) < 0)
        return -1;
    e->pending_acks = others;
    for (int tile = 0; tile < d->n_tiles; tile++)
        if (tile != e->requester && is_sharer(d, e, tile)
                && dir_send(d, tile, K_INV, e->line_obj, NULL, Py_None) < 0)
            return -1;
    return 0;
}

/* start the L2 data access, fetching from memory on a miss; its timer's
 * event is the reply it releases */
static int
dir_read(CDirCore *d, CDirEntry *e)
{
    PyObject *tag = tags_get(d->tags, e->line_obj, e->line);
    long long delay = d->l2_latency;
    if (tag != NULL) {
        if (tags_touch(d->tags, e->line_obj, e->line) < 0
                || dir_count(d, C_DATA_ACCESSES, 1) < 0)
            return -1;
    }
    else if (PyErr_Occurred()
             || dir_count(d, C_MISSES, 1) < 0
             || dir_count(d, C_MEM_READS, 1) < 0)
        return -1;
    else
        delay += d->memory_latency;
    int grant = e->kind != K_GETS ? K_DATA_M
                : e->owner < 0 && e->n_sharers == 0 && d->mesi ? K_DATA_E
                : K_DATA;
    return csim_push_ev(d->sim, d->sim->now + delay, (PyObject *)d,
                        e->line_obj, EV_DIR_FIRE,
                        roles[R_DIR].kind_event[grant]);
}

static int
dir_may_evict(void *ctx, PyObject *cand)
{
    long long lv = PyLong_AsLongLong(cand);
    if (lv == -1 && PyErr_Occurred())
        return -1;
    CDirEntry *e = dir_find((CDirCore *)ctx, lv);
    return e == NULL || e->state == st_dir_i;
}

/* install a line fetched from memory */
static int
dir_install(CDirCore *d, CDirEntry *e)
{
    PyObject *victim, *vstate;
    if (tags_insert(d->tags, e->line_obj, e->line, str_clean, dir_may_evict,
                    d, &victim, &vstate) < 0)
        return -1;
    if (victim == NULL)
        return 0;
    int rc = -1;
    long long vlv = PyLong_AsLongLong(victim);
    int dirty = PyUnicode_Check(vstate)
                && PyUnicode_Compare(vstate, str_dirty) == 0;
    if (!(vlv == -1 && PyErr_Occurred())
            && dir_count(d, C_EVICTIONS, 1) == 0
            && (!dirty || dir_count(d, C_MEM_WRITES, 1) == 0)) {
        dir_remove(d, vlv);
        rc = 0;
    }
    Py_DECREF(victim);
    Py_DECREF(vstate);
    return rc;
}

static int
dir_take(CDirCore *d, CDirEntry *e, int event, PyObject *msg)
{
    int state = e->state;
    CRow *row = ROW(R_DIR, state, event);
    if (!row->defined)
        return no_row("home", d->id, e->line_obj, STATE_NAME(R_DIR, state),
                      EVENT_NAME(R_DIR, event));
    PyObject *line = e->line_obj;
    CSimulator *sim = d->sim;
    for (int i = 0; i < row->n_ops; i++) {
        int arg = row->arg[i], rc = 0;
        PyObject *tag, *kind, *requester;
        long src;
        if (msg == NULL && (row->op[i] == D_ACCEPT || row->op[i] == D_QUEUE
                            || row->op[i] == D_RESUME)) {
            PyErr_Format(PyExc_RuntimeError, "home %ld: %U needs a message",
                         d->id, EVENT_NAME(R_DIR, event));
            return -1;
        }
        switch (row->op[i]) {
        case D_ACCEPT:
            e->kind = msg_kind(msg, &kind, &src);
            if (e->kind == -2)
                return -1;
            Py_DECREF(kind);
            if (e->kind < K_GETS || e->kind > K_UPGRADE) {
                PyErr_Format(PyExc_RuntimeError, "home %ld: %R is no "
                             "request", d->id, msg);
                return -1;
            }
            e->requester = (int)src;
            rc = csim_push(sim, sim->now, (PyObject *)d, line, EV_DIR_STEP);
            break;
        case D_QUEUE:
            rc = queue_push(e, msg);
            break;
        case D_FORWARD:
            requester = PyLong_FromLong(e->requester);
            rc = requester == NULL ? -1
                 : dir_send(d, e->owner, arg, line, str_requester, requester);
            Py_XDECREF(requester);
            break;
        case D_INVALIDATE:
            rc = dir_invalidate(d, e);
            break;
        case D_ACK:
            e->pending_acks--;
            break;
        case D_CLEAR:
            memset(e->sharers, 0, (size_t)d->words * sizeof(e->sharers[0]));
            e->n_sharers = 0;
            break;
        case D_RESUME:
            rc = csim_push(sim, sim->now, (PyObject *)d, msg, EV_DIR_RESUME);
            break;
        case D_NOTE_UNBLOCK:
            e->unblocked = 1;
            break;
        case D_USE_UNBLOCK:
            e->unblocked = 0;
            break;
        case D_WRITEBACK:
            tag = tags_get(d->tags, line, e->line);
            rc = tag != NULL ? tags_set(d->tags, line, e->line, str_dirty)
                 : PyErr_Occurred() ? -1 : 0;
            break;
        case D_DISOWN:
            e->owner = -1;
            break;
        case D_SHARE_C2C:
            rc = add_sharer(d, e, e->owner);
            e->owner = -1;
            if (rc == 0)
                rc = add_sharer(d, e, e->requester);
            break;
        case D_SHARE:
            rc = add_sharer(d, e, e->requester);
            break;
        case D_OWN:
            e->owner = e->requester;
            break;
        case D_REPLY:
            rc = dir_send(d, e->requester, arg, line, NULL, Py_None);
            break;
        case D_DELAY:
            rc = csim_push_ev(sim, sim->now + d->dir_latency, (PyObject *)d,
                              line, EV_DIR_FIRE,
                              roles[R_DIR].kind_event[K_GRANT_M]);
            break;
        case D_READ:
            rc = dir_read(d, e);
            break;
        case D_INSTALL:
            tag = tags_get(d->tags, line, e->line);
            rc = tag != NULL ? 0 : PyErr_Occurred() ? -1 : dir_install(d, e);
            break;
        }
        if (rc < 0)
            return -1;
    }
    if (observe(d->observer, d->owner, line, msg, row->seen) < 0)
        return -1;
    /* L2DirectorySlice.enter: a line that goes idle takes its next
     * queued request */
    int nxt = row->nxt;
    e->state = nxt;
    char *idle = roles[R_DIR].mark;
    if (idle[nxt] && !idle[state] && e->q_len > 0) {
        PyObject *request = e->queue[e->q_head];
        e->q_head = (e->q_head + 1) % e->q_cap;
        e->q_len--;
        PyObject *kind;
        long src;
        int k = msg_kind(request, &kind, &src);
        int rc = k == -2 ? -1
                 : k < 0 ? no_row("home", d->id, line,
                                  STATE_NAME(R_DIR, nxt), kind)
                 : dir_take(d, e, roles[R_DIR].kind_event[k], request);
        if (k != -2)
            Py_DECREF(kind);
        Py_DECREF(request);
        return rc;
    }
    return 0;
}

/* the entry an event of this slice names; it exists while in flight */
static CDirEntry *
dir_entry_of(CDirCore *d, PyObject *line)
{
    long long lv = PyLong_AsLongLong(line);
    if (lv == -1 && PyErr_Occurred())
        return NULL;
    CDirEntry *e = dir_find(d, lv);
    if (e == NULL)
        PyErr_Format(PyExc_RuntimeError, "home %ld: line %R has no "
                     "directory entry", d->id, line);
    return e;
}

static int
dir_receive(PyObject *core, PyObject *msg)
{
    CDirCore *d = (CDirCore *)core;
    PyObject *kind;
    long src;
    int k = msg_kind(msg, &kind, &src);
    if (k == -2)
        return -1;
    int rc = -1;
    PyObject *line = msg_line(msg);
    long long lv = line == NULL ? -1 : PyLong_AsLongLong(line);
    CDirEntry *e = PyErr_Occurred() ? NULL : dir_get(d, line, lv);
    if (e != NULL) {
        int event = k < 0 ? -1 : roles[R_DIR].kind_event[k];
        if (k == K_WB_DATA || k == K_EVICT_CLEAN || k == K_RECALL_DATA
                || k == K_RECALL_ACK) {
            /* sent by the line's owner only; an absent-ack is stale */
            int present = 1;
            if (k == K_RECALL_ACK) {
                PyObject *p = msg_extra(msg, str_present);
                present = p == NULL ? -1 : PyObject_IsTrue(p);
                Py_XDECREF(p);
            }
            if (present < 0)
                event = -2;
            else if (!present)
                event = ev_stale_ack;
            else if (src != e->owner)
                event = ev_non_owner[k];
        }
        else if (k == K_INV_ACK && e->pending_acks == 1)
            event = ev_last_ack;
        rc = event == -2 ? -1
             : event < 0 ? no_row("home", d->id, line,
                                  STATE_NAME(R_DIR, e->state), kind)
             : dir_take(d, e, event, msg);
    }
    Py_XDECREF(line);
    Py_DECREF(kind);
    return rc;
}

static int
dir_step(PyObject *core, PyObject *line)
{
    /* first step of an accepted request: what does it find? */
    CDirCore *d = (CDirCore *)core;
    CDirEntry *e = dir_entry_of(d, line);
    if (e == NULL || dir_count(d, C_ACCESSES, 1) < 0)
        return -1;
    int requester = e->requester, kind = e->kind;
    if (e->owner == requester) {
        PyErr_Format(PyExc_RuntimeError, "home %ld: %U from current owner "
                     "%d", d->id, kind_obj[kind], requester);
        return -1;
    }
    int shares = is_sharer(d, e, requester);
    if (kind == K_UPGRADE && !shares)
        kind = e->kind = K_GETM;          /* its S copy was invalidated */
    int at = e->owner >= 0 ? 0 : e->n_sharers > shares ? 1 : 2;
    return dir_take(d, e, ev_at[kind][at], NULL);
}

static int
dir_resume(PyObject *core, PyObject *msg)
{
    /* the transaction resumes after the message it awaited */
    CDirCore *d = (CDirCore *)core;
    PyObject *kind;
    long src;
    int k = msg_kind(msg, &kind, &src);
    if (k == -2)
        return -1;
    Py_DECREF(kind);
    PyObject *line = msg_line(msg);
    CDirEntry *e = line == NULL ? NULL : dir_entry_of(d, line);
    Py_XDECREF(line);
    if (e == NULL)
        return -1;
    int event = ev_resume[e->kind];
    if (e->state == st_dir_fwd_done) {
        if (dir_count(d, C_FORWARDS, 1) < 0)
            return -1;
        if (k == K_WB_DATA || k == K_EVICT_CLEAN)
            event = ev_resume_evicted;
        else if (e->unblocked)
            event = ev_resume_unblock[e->kind];
    }
    return dir_take(d, e, event, msg);
}

static int
dir_fire(PyObject *core, PyObject *line, int event)
{
    CDirCore *d = (CDirCore *)core;
    CDirEntry *e = dir_entry_of(d, line);
    return e == NULL ? -1 : dir_take(d, e, event, NULL);
}

static PyObject *
dircore_call(CDirCore *self, PyObject *args, PyObject *kwds)
{
    PyObject *msg;
    if (!PyArg_ParseTuple(args, "O:receive", &msg)
            || dir_receive((PyObject *)self, msg) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
dircore_evictable(CDirCore *self, PyObject *line)
{
    int ok = dir_may_evict(self, line);
    return ok < 0 ? NULL : PyBool_FromLong(ok);
}

static PyObject *
dircore_entry(CDirCore *self, PyObject *line)
{
    /* the line's DirEntry fields, or None */
    long long lv = PyLong_AsLongLong(line);
    if (lv == -1 && PyErr_Occurred())
        return NULL;
    CDirEntry *e = dir_find(self, lv);
    if (e == NULL)
        Py_RETURN_NONE;
    PyObject *sharers = PyList_New(0);
    PyObject *queue = PyList_New(0);
    if (sharers == NULL || queue == NULL)
        goto fail;
    for (int tile = 0; tile < self->n_tiles; tile++) {
        PyObject *t = is_sharer(self, e, tile) ? PyLong_FromLong(tile) : NULL;
        if (t != NULL && PyList_Append(sharers, t) < 0) {
            Py_DECREF(t);
            goto fail;
        }
        Py_XDECREF(t);
        if (PyErr_Occurred())
            goto fail;
    }
    for (int i = 0; i < e->q_len; i++)
        if (PyList_Append(queue, e->queue[(e->q_head + i) % e->q_cap]) < 0)
            goto fail;
    PyObject *owner = e->owner < 0 ? Py_NewRef(Py_None)
                                   : PyLong_FromLong(e->owner);
    if (owner == NULL)
        goto fail;
    return Py_BuildValue("(NNONiNiO)", owner, sharers,
                         STATE_NAME(R_DIR, e->state), queue, e->requester,
                         e->kind < 0 ? PyUnicode_New(0, 0)
                                     : Py_NewRef(kind_obj[e->kind]),
                         e->pending_acks, e->unblocked ? Py_True : Py_False);
fail:
    Py_XDECREF(sharers);
    Py_XDECREF(queue);
    return NULL;
}

static int
dircore_init(CDirCore *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"owner", "mesh", "tags", "counters", "tile_id",
                             "l2_latency", "memory_latency", "dir_latency",
                             "mesi", "noc", NULL};
    PyObject *owner, *mesh, *tags, *counters, *noc;
    long id;
    long long l2_latency, memory_latency, dir_latency;
    int mesi;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "OO!O!OlLLLpO:DirCore", kwlist, &owner,
            &MeshCore_Type, &mesh, &TagArray_Type, &tags, &counters, &id,
            &l2_latency, &memory_latency, &dir_latency, &mesi, &noc))
        return -1;
    if (roles[R_DIR].rows == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "configure_protocol was never called");
        return -1;
    }
    if (self->slots != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "DirCore is already set up");
        return -1;
    }
    if (message_sizes(noc, &self->data_bytes, &self->control_bytes) < 0)
        return -1;
    Py_XSETREF(self->counter_set, Py_NewRef(counters));
    Py_XSETREF(self->owner, Py_NewRef(owner));
    Py_XSETREF(self->mesh, (CMeshCore *)Py_NewRef(mesh));
    Py_XSETREF(self->sim, (CSimulator *)Py_NewRef(self->mesh->sim));
    Py_XSETREF(self->tags, (CTagArray *)Py_NewRef(tags));
    self->id = id;
    self->n_tiles = self->mesh->ntiles;
    self->words = (self->n_tiles + 63) / 64;
    self->l2_latency = l2_latency;
    self->memory_latency = memory_latency;
    self->dir_latency = dir_latency;
    self->mesi = mesi;
    return 0;
}

static int
dircore_traverse(CDirCore *self, visitproc visit, void *arg)
{
    Py_VISIT(self->owner);
    Py_VISIT(self->sim);
    Py_VISIT(self->mesh);
    Py_VISIT(self->tags);
    Py_VISIT(self->observer);
    Py_VISIT(self->counter_set);
    for (int i = 0; i < N_DIR_COUNTERS; i++)
        Py_VISIT(self->counters[i]);
    for (size_t i = 0; i < self->cap; i++) {
        CDirEntry *e = self->slots[i];
        if (e == NULL)
            continue;
        Py_VISIT(e->line_obj);
        for (int j = 0; j < e->q_len; j++)
            Py_VISIT(e->queue[(e->q_head + j) % e->q_cap]);
    }
    return 0;
}

static int
dircore_clear(CDirCore *self)
{
    Py_CLEAR(self->owner);
    Py_CLEAR(self->sim);
    Py_CLEAR(self->mesh);
    Py_CLEAR(self->tags);
    Py_CLEAR(self->observer);
    Py_CLEAR(self->counter_set);
    for (int i = 0; i < N_DIR_COUNTERS; i++)
        Py_CLEAR(self->counters[i]);
    for (size_t i = 0; i < self->cap; i++)
        if (self->slots[i] != NULL) {
            dir_entry_free(self->slots[i]);
            self->slots[i] = NULL;
        }
    self->count = 0;
    return 0;
}

static void
dircore_dealloc(CDirCore *self)
{
    PyObject_GC_UnTrack(self);
    dircore_clear(self);
    PyMem_Free(self->slots);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef dircore_methods[] = {
    {"evictable", (PyCFunction)dircore_evictable, METH_O,
     "May the L2 drop the line?  Only in state I."},
    {"entry", (PyCFunction)dircore_entry, METH_O,
     "The line's DirEntry fields as a tuple, or None."},
    {NULL}
};

static PyMemberDef dircore_members[] = {
    {"__self__", T_OBJECT, offsetof(CDirCore, owner), READONLY, NULL},
    {"observer", T_OBJECT, offsetof(CDirCore, observer), 0,
     "Called as observer(home, line, msg, (state, event, next)) after "
     "each row's actions (None: not called)."},
    {NULL}
};

static PyTypeObject DirCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.DirCore",
    .tp_basicsize = sizeof(CDirCore),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The directory rows of the MESI table, run for one "
              "L2DirectorySlice; calling it delivers a message.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)dircore_init,
    .tp_dealloc = (destructor)dircore_dealloc,
    .tp_traverse = (traverseproc)dircore_traverse,
    .tp_clear = (inquiry)dircore_clear,
    .tp_call = (ternaryfunc)dircore_call,
    .tp_methods = dircore_methods,
    .tp_members = dircore_members,
};

/* ------------------------------------------------------------------ */
/* module init                                                         */
/* ------------------------------------------------------------------ */

static PyMethodDef ckernel_module_methods[] = {
    {"configure_protocol", (PyCFunction)ck_configure_protocol, METH_VARARGS,
     "configure_protocol(category, carries_data, program, l1_transient, "
     "dir_idle): install the message kinds and the transition rows."},
    {"protocol_program", (PyCFunction)ck_protocol_program, METH_NOARGS,
     "The configured rows, decoded back into configure_protocol's "
     "program format."},
    {NULL}
};

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._ckernel",
    .m_doc = "Compiled event-kernel backend (see repro.sim.kernel).",
    .m_size = -1,
    .m_methods = ckernel_module_methods,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    /* the pure kernel is the behavioural reference: error classes and
     * the cold-path helpers (hook chaining, deadlock reports, join) are
     * borrowed from it so the two backends cannot drift apart there */
    PyObject *pure = PyImport_ImportModule("repro.sim._kernel_pure");
    if (pure == NULL)
        return NULL;
    SimulationError = PyObject_GetAttrString(pure, "SimulationError");
    SimDeadlockError = PyObject_GetAttrString(pure, "SimDeadlockError");
    chain_hooks_fn = PyObject_GetAttrString(pure, "_chain_hooks");
    PyObject *pure_sim = PyObject_GetAttrString(pure, "Simulator");
    PyObject *pure_proc = PyObject_GetAttrString(pure, "Process");
    Py_DECREF(pure);
    if (SimulationError == NULL || SimDeadlockError == NULL
            || chain_hooks_fn == NULL || pure_sim == NULL
            || pure_proc == NULL)
        goto fail;
    blocked_report_fn = PyObject_GetAttrString(pure_sim, "_blocked_report");
    blocked_snapshot_fn = PyObject_GetAttrString(pure_sim,
                                                 "_blocked_snapshot");
    join_fn = PyObject_GetAttrString(pure_proc, "join");
    Py_CLEAR(pure_sim);
    Py_CLEAR(pure_proc);
    if (blocked_report_fn == NULL || blocked_snapshot_fn == NULL
            || join_fn == NULL)
        goto fail;

    PyObject *time_mod = PyImport_ImportModule("time");
    if (time_mod == NULL)
        goto fail;
    perf_counter_fn = PyObject_GetAttrString(time_mod, "perf_counter");
    Py_DECREF(time_mod);
    if (perf_counter_fn == NULL)
        goto fail;

    if ((str__step = PyUnicode_InternFromString("_step")) == NULL
            || (str_value = PyUnicode_InternFromString("value")) == NULL
            || (str_record = PyUnicode_InternFromString("record")) == NULL
            || (str_noc = PyUnicode_InternFromString("noc")) == NULL
            || (str_line = PyUnicode_InternFromString("line")) == NULL
            || (str_extra = PyUnicode_InternFromString("extra")) == NULL
            || (str_payload = PyUnicode_InternFromString("payload")) == NULL
            || (str_data_bytes =
                    PyUnicode_InternFromString("data_msg_bytes")) == NULL
            || (str_control_bytes =
                    PyUnicode_InternFromString("control_msg_bytes")) == NULL
            || (str_present = PyUnicode_InternFromString("present")) == NULL
            || (str_requester =
                    PyUnicode_InternFromString("requester")) == NULL
            || (str_grant = PyUnicode_InternFromString("grant")) == NULL
            || (str_clean = PyUnicode_InternFromString("clean")) == NULL
            || (str_dirty = PyUnicode_InternFromString("dirty")) == NULL)
        goto fail;
    for (int k = 0; k < N_KINDS; k++)
        if ((kind_obj[k] = PyUnicode_InternFromString(kind_names[k])) == NULL)
            goto fail;

    if (PyType_Ready(&Simulator_Type) < 0
            || PyType_Ready(&Signal_Type) < 0
            || PyType_Ready(&Process_Type) < 0
            || PyType_Ready(&Message_Type) < 0
            || PyType_Ready(&TagArray_Type) < 0
            || PyType_Ready(&MeshCore_Type) < 0
            || PyType_Ready(&L1Core_Type) < 0
            || PyType_Ready(&DirCore_Type) < 0)
        goto fail;

    PyObject *mod = PyModule_Create(&ckernel_module);
    if (mod == NULL)
        goto fail;
    if (PyModule_AddObjectRef(mod, "Simulator",
                              (PyObject *)&Simulator_Type) < 0
            || PyModule_AddObjectRef(mod, "Signal",
                                     (PyObject *)&Signal_Type) < 0
            || PyModule_AddObjectRef(mod, "Process",
                                     (PyObject *)&Process_Type) < 0
            || PyModule_AddObjectRef(mod, "Message",
                                     (PyObject *)&Message_Type) < 0
            || PyModule_AddObjectRef(mod, "TagArray",
                                     (PyObject *)&TagArray_Type) < 0
            || PyModule_AddObjectRef(mod, "MeshCore",
                                     (PyObject *)&MeshCore_Type) < 0
            || PyModule_AddObjectRef(mod, "L1Core",
                                     (PyObject *)&L1Core_Type) < 0
            || PyModule_AddObjectRef(mod, "DirCore",
                                     (PyObject *)&DirCore_Type) < 0
            || PyModule_AddObjectRef(mod, "SimulationError",
                                     SimulationError) < 0
            || PyModule_AddObjectRef(mod, "SimDeadlockError",
                                     SimDeadlockError) < 0) {
        Py_DECREF(mod);
        goto fail;
    }
    return mod;

fail:
    Py_CLEAR(SimulationError);
    Py_CLEAR(SimDeadlockError);
    Py_CLEAR(chain_hooks_fn);
    Py_CLEAR(blocked_report_fn);
    Py_CLEAR(blocked_snapshot_fn);
    Py_CLEAR(join_fn);
    Py_CLEAR(perf_counter_fn);
    Py_XDECREF(pure_sim);
    Py_XDECREF(pure_proc);
    return NULL;
}
