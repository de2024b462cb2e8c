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
 * Also hosts the component-level accelerators named in the performance
 * notes: the protocol Message record + make_msg, the set-associative
 * TagArray, MeshCore (XY routing, link reservation and traffic
 * accounting for repro.noc.topology.Mesh) and L1Hit (the L1 controller
 * of repro.mem.l1).
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
/* protocol tables installed by repro.mem.protocol via configure_protocol */
static PyObject *proto_category;      /* dict kind -> MsgCategory */
static PyObject *proto_carries;       /* set of data-carrying kinds */
/* the protocol kinds the L1 controller sends or dispatches on (interned,
 * so an interned message kind matches by pointer) */
static PyObject *k_gets, *k_getm, *k_upgrade, *k_data, *k_data_e,
                *k_data_m, *k_grant_m, *k_inv_ack, *k_fwd_gets, *k_data_c2c,
                *k_unblock, *k_recall_data, *k_recall_ack, *k_wb_data,
                *k_evict_clean;

typedef struct CSimulator CSimulator;
typedef struct CSignal CSignal;
typedef struct CProcess CProcess;

static PyTypeObject Simulator_Type;
static PyTypeObject Signal_Type;
static PyTypeObject Process_Type;
static PyTypeObject Message_Type;
static PyTypeObject TagArray_Type;
static PyTypeObject MeshCore_Type;

/* Python's f"{v:#x}" into buf, for error texts: PyUnicode_FromFormat
 * has no long long hex conversion before 3.12 */
#define HEX_BUF 24
static const char *
hex_of(char *buf, long long v)
{
    if (v < 0)
        snprintf(buf, HEX_BUF, "-0x%llx", 0ULL - (unsigned long long)v);
    else
        snprintf(buf, HEX_BUF, "0x%llx", (unsigned long long)v);
    return buf;
}

/* ------------------------------------------------------------------ */
/* events                                                              */
/* ------------------------------------------------------------------ */
#define EV_CALL0 0   /* fn() */
#define EV_CALL1 1   /* fn(arg) */
#define EV_CALLN 2   /* fn(*arg) — arg is a tuple */
#define EV_STEP  3   /* step the Process in fn with arg (NULL = None) */

typedef struct {
    long long time;
    long long seq;
    PyObject *fn;    /* owned */
    PyObject *arg;   /* owned or NULL */
    int kind;
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
    PyObject *processes;        /* list of Process */
    PyObject *tracer;           /* None or Tracer */
    PyObject *profiler;         /* None or Profiler */
    PyObject *on_event;         /* None or callable(sim) */
    PyObject *signal_registry;  /* NULL (disabled) or list of weakrefs */
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
    CSignal *done;              /* owned */
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
csim_push(CSimulator *s, long long time, PyObject *fn, PyObject *arg,
          int kind)
{
    CEvent ev;
    ev.time = time;
    ev.seq = ++s->seq;
    ev.fn = Py_NewRef(fn);
    ev.arg = arg ? Py_NewRef(arg) : NULL;
    ev.kind = kind;
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
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!|U:Signal", kwlist,
                                     &Simulator_Type, &simobj, &name))
        return -1;
    CSimulator *sim = (CSimulator *)simobj;
    if (name == NULL) {
        name = PyUnicode_New(0, 0);
        if (name == NULL)
            return -1;
    }
    else
        Py_INCREF(name);
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
        return csignal_fire_impl(p->done, item);
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
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!O|U:Process", kwlist,
                                     &Simulator_Type, &simobj, &gen, &name))
        return -1;
    if (name == NULL) {
        name = PyUnicode_New(0, 0);
        if (name == NULL)
            return -1;
    }
    else
        Py_INCREF(name);
    PyObject *done_name = PyUnicode_FromFormat("%U.done", name);
    if (done_name == NULL) {
        Py_DECREF(name);
        return -1;
    }
    CSignal *done = csignal_make((CSimulator *)simobj, done_name);
    if (done == NULL) {
        Py_DECREF(name);
        return -1;
    }
    Py_XSETREF(self->sim, (CSimulator *)Py_NewRef(simobj));
    Py_XSETREF(self->name, name);
    Py_XSETREF(self->gen, Py_NewRef(gen));
    self->finished = 0;
    Py_XSETREF(self->result, Py_NewRef(Py_None));
    Py_XSETREF(self->done, done);
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
    {"done", T_OBJECT, offsetof(CProcess, done), READONLY, NULL},
    {"waiting_on", T_OBJECT, offsetof(CProcess, waiting_on), READONLY, NULL},
    {NULL}
};

static PyGetSetDef cprocess_getsets[] = {
    {"finished", (getter)cprocess_get_finished, NULL, NULL, NULL},
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
    Py_XSETREF(self->processes, PyList_New(0));
    Py_XSETREF(self->tracer, Py_NewRef(Py_None));
    Py_XSETREF(self->profiler,
               Py_NewRef(profile == NULL ? Py_None : profile));
    Py_XSETREF(self->on_event, Py_NewRef(Py_None));
    Py_CLEAR(self->signal_registry);
    self->registry_compact_at = 256;
    self->retain_values = 0;
    return self->processes == NULL ? -1 : 0;
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
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|U:signal", kwlist, &name))
        return NULL;
    if (name == NULL) {
        name = PyUnicode_New(0, 0);
        if (name == NULL)
            return NULL;
    }
    else
        Py_INCREF(name);
    return (PyObject *)csignal_make(self, name);
}

static PyObject *
csim_spawn(CSimulator *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"gen", "name", NULL};
    PyObject *gen, *name = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|U:spawn", kwlist,
                                     &gen, &name))
        return NULL;
    if (name == NULL || PyUnicode_GET_LENGTH(name) == 0)
        name = PyUnicode_FromFormat("proc%zd",
                                    PyList_GET_SIZE(self->processes));
    else
        Py_INCREF(name);
    if (name == NULL)
        return NULL;
    CProcess *proc = (CProcess *)Process_Type.tp_alloc(&Process_Type, 0);
    if (proc == NULL) {
        Py_DECREF(name);
        return NULL;
    }
    PyObject *done_name = PyUnicode_FromFormat("%U.done", name);
    if (done_name == NULL)
        goto fail;
    CSignal *done = csignal_make(self, done_name);
    if (done == NULL)
        goto fail;
    proc->sim = (CSimulator *)Py_NewRef((PyObject *)self);
    proc->name = name;
    proc->gen = Py_NewRef(gen);
    proc->finished = 0;
    proc->result = Py_NewRef(Py_None);
    proc->done = done;
    proc->waiting_on = Py_NewRef(Py_None);
    if (PyList_Append(self->processes, (PyObject *)proc) < 0
            || csim_push(self, self->now, (PyObject *)proc, NULL,
                         EV_STEP) < 0) {
        Py_DECREF(proc);
        return NULL;
    }
    return (PyObject *)proc;
fail:
    Py_DECREF(name);
    Py_DECREF(proc);
    return NULL;
}

/* run one popped event; consumes cur's references.  Returns -1 with an
 * exception set on failure. */
static int
csim_exec(CSimulator *s, CEvent *cur)
{
    int rc = 0;
    PyObject *res = NULL;
    if (s->profiler == Py_None) {
        switch (cur->kind) {
        case EV_STEP:
            rc = process_step((CProcess *)cur->fn, cur->arg);
            break;
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
        if (res == NULL && cur->kind != EV_STEP)
            rc = -1;
        Py_XDECREF(res);
    }
    else {
        /* profiled path: wall-time the callback and attribute it by the
         * same key the pure kernel uses (the callable; for process
         * steps, the bound _step method whose __self__ is the Process) */
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
                switch (cur->kind) {
                case EV_STEP:
                    rc = process_step((CProcess *)cur->fn, cur->arg);
                    break;
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
                if (res == NULL && cur->kind != EV_STEP)
                    rc = -1;
                Py_XDECREF(res);
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
    Py_VISIT(self->processes);
    Py_VISIT(self->tracer);
    Py_VISIT(self->profiler);
    Py_VISIT(self->on_event);
    Py_VISIT(self->signal_registry);
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
    Py_CLEAR(self->processes);
    Py_CLEAR(self->tracer);
    Py_CLEAR(self->profiler);
    Py_CLEAR(self->on_event);
    Py_CLEAR(self->signal_registry);
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
/* Message + make_msg (repro.noc.messages / repro.mem.protocol)        */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    long src;
    long dst;
    PyObject *kind;       /* interned str */
    PyObject *category;   /* MsgCategory member */
    long size_bytes;
    PyObject *payload;
    long long msg_id;
} CMessage;

static long long message_counter = 0;

static int
cmessage_init(CMessage *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"src", "dst", "kind", "category", "size_bytes",
                             "payload", "msg_id", NULL};
    long src, dst, size_bytes;
    PyObject *kind, *category, *payload = Py_None, *msg_id_obj = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "llUOl|OO:Message", kwlist,
                                     &src, &dst, &kind, &category,
                                     &size_bytes, &payload, &msg_id_obj))
        return -1;
    if (size_bytes <= 0) {
        PyErr_SetString(PyExc_ValueError, "message size must be positive");
        return -1;
    }
    Py_INCREF(kind);
    PyUnicode_InternInPlace(&kind);
    self->src = src;
    self->dst = dst;
    Py_XSETREF(self->kind, kind);
    Py_XSETREF(self->category, Py_NewRef(category));
    self->size_bytes = size_bytes;
    Py_XSETREF(self->payload, Py_NewRef(payload));
    if (msg_id_obj != NULL && msg_id_obj != Py_None) {
        long long mid = PyLong_AsLongLong(msg_id_obj);
        if (mid == -1 && PyErr_Occurred())
            return -1;
        self->msg_id = mid;
    }
    else
        self->msg_id = message_counter++;
    return 0;
}

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

static int
cmessage_traverse(CMessage *self, visitproc visit, void *arg)
{
    Py_VISIT(self->category);
    Py_VISIT(self->payload);
    return 0;
}

static int
cmessage_clear(CMessage *self)
{
    Py_CLEAR(self->kind);
    Py_CLEAR(self->category);
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
    {"kind", T_OBJECT, offsetof(CMessage, kind), 0, NULL},
    {"category", T_OBJECT, offsetof(CMessage, category), 0, NULL},
    {"size_bytes", T_LONG, offsetof(CMessage, size_bytes), 0, NULL},
    {"payload", T_OBJECT, offsetof(CMessage, payload), 0, NULL},
    {"msg_id", T_LONGLONG, offsetof(CMessage, msg_id), 0, NULL},
    {NULL}
};

static PyTypeObject Message_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.Message",
    .tp_basicsize = sizeof(CMessage),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC
                | Py_TPFLAGS_BASETYPE,
    .tp_doc = "A single NoC message (compiled record).",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)cmessage_init,
    .tp_dealloc = (destructor)cmessage_dealloc,
    .tp_traverse = (traverseproc)cmessage_traverse,
    .tp_clear = (inquiry)cmessage_clear,
    .tp_repr = (reprfunc)cmessage_repr,
    .tp_members = cmessage_members,
};

static PyObject *
ck_configure_protocol(PyObject *mod, PyObject *args)
{
    /* install the kind -> category map, the data-carrying kind set and
     * the L1 controller's kind constants (repro.mem.protocol calls this
     * at import so the C module never has to import protocol/messages
     * itself); the kinds tuple order is fixed by the list below */
    PyObject *category, *carries;
    PyObject **slots[] = {&k_gets, &k_getm, &k_upgrade, &k_data, &k_data_e,
                          &k_data_m, &k_grant_m, &k_inv_ack, &k_fwd_gets,
                          &k_data_c2c, &k_unblock, &k_recall_data,
                          &k_recall_ack, &k_wb_data, &k_evict_clean};
    PyObject *kinds[15];
    if (!PyArg_ParseTuple(args, "OO(UUUUUUUUUUUUUUU):configure_protocol",
                          &category, &carries, &kinds[0], &kinds[1],
                          &kinds[2], &kinds[3], &kinds[4], &kinds[5],
                          &kinds[6], &kinds[7], &kinds[8], &kinds[9],
                          &kinds[10], &kinds[11], &kinds[12], &kinds[13],
                          &kinds[14]))
        return NULL;
    Py_XSETREF(proto_category, Py_NewRef(category));
    Py_XSETREF(proto_carries, Py_NewRef(carries));
    for (int i = 0; i < 15; i++) {
        PyObject *kind = Py_NewRef(kinds[i]);
        PyUnicode_InternInPlace(&kind);
        Py_XSETREF(*slots[i], kind);
    }
    Py_RETURN_NONE;
}

static PyObject *str_line;          /* "line" */
static PyObject *str_extra;         /* "extra" */
static PyObject *str_data_bytes;    /* "data_msg_bytes" */
static PyObject *str_control_bytes; /* "control_msg_bytes" */

static PyObject *
ck_build_msg(PyObject *noc, long src, long dst, PyObject *kind,
             PyObject *line, PyObject *payload)
{
    if (proto_category == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "configure_protocol was never called");
        return NULL;
    }
    PyObject *category = PyDict_GetItemWithError(proto_category, kind);
    if (category == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, kind);
        return NULL;
    }
    int carries = PySet_Contains(proto_carries, kind);
    if (carries < 0)
        return NULL;
    PyObject *size_obj = PyObject_GetAttr(
        noc, carries ? str_data_bytes : str_control_bytes);
    if (size_obj == NULL)
        return NULL;
    long size = PyLong_AsLong(size_obj);
    Py_DECREF(size_obj);
    if (size == -1 && PyErr_Occurred())
        return NULL;
    PyObject *pd = PyDict_New();
    if (pd == NULL)
        return NULL;
    if (PyDict_SetItem(pd, str_line, line) < 0
            || PyDict_SetItem(pd, str_extra, payload) < 0) {
        Py_DECREF(pd);
        return NULL;
    }
    CMessage *msg = (CMessage *)Message_Type.tp_alloc(&Message_Type, 0);
    if (msg == NULL) {
        Py_DECREF(pd);
        return NULL;
    }
    msg->src = src;
    msg->dst = dst;
    /* interned like cmessage_init's, because the L1 controller matches
     * kinds by pointer (for the interned protocol constants this only
     * tests a flag) */
    msg->kind = Py_NewRef(kind);
    if (PyUnicode_CheckExact(msg->kind))
        PyUnicode_InternInPlace(&msg->kind);
    msg->category = Py_NewRef(category);
    msg->size_bytes = size;
    msg->payload = pd;
    msg->msg_id = message_counter++;
    return (PyObject *)msg;
}

static PyObject *
ck_make_msg(PyObject *mod, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"noc", "src", "dst", "kind", "line", "payload",
                             NULL};
    PyObject *noc, *kind, *line, *payload = Py_None;
    long src, dst;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OllUO|O:make_msg", kwlist,
                                     &noc, &src, &dst, &kind, &line,
                                     &payload))
        return NULL;
    return ck_build_msg(noc, src, dst, kind, line, payload);
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

/* borrowed state of line `arg` (value `line`), NULL when absent or on
 * error (check PyErr_Occurred); *set_out receives its set dict or NULL.
 * The C L1 controller probes its tags through this too. */
static inline PyObject *
ctag_probe(CTagArray *self, PyObject *arg, long long line,
           PyObject **set_out)
{
    PyObject *s = self->sets[ctag_set_index(self, line)];
    *set_out = s;
    return s == NULL ? NULL : PyDict_GetItemWithError(s, arg);
}

/* move a resident line to MRU: pop + reinsert (dict insertion order) */
static int
ctag_mru(PyObject *s, PyObject *arg, PyObject *state)
{
    Py_INCREF(state);
    int rc = (PyDict_DelItem(s, arg) < 0
              || PyDict_SetItem(s, arg, state) < 0) ? -1 : 0;
    Py_DECREF(state);
    return rc;
}

static PyObject *
ctag_lookup(CTagArray *self, PyObject *arg)
{
    long long line = ctag_parse_line(arg);
    if (line == -1 && PyErr_Occurred())
        return NULL;
    PyObject *s;
    PyObject *state = ctag_probe(self, arg, line, &s);
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
    if (line == -1 && PyErr_Occurred())
        return NULL;
    long long idx = ctag_set_index(self, line);
    PyObject *s = self->sets[idx];
    if (s == NULL) {
        PyObject *key = PyLong_FromLongLong(idx);
        if (key != NULL) {
            PyErr_SetObject(PyExc_KeyError, key);
            Py_DECREF(key);
        }
        return NULL;
    }
    PyObject *state = PyDict_GetItemWithError(s, arg);
    if (state == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, arg);
        return NULL;
    }
    if (ctag_mru(s, arg, state) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* set_state on a resident line (plain assignment keeps its LRU
 * position); KeyError "line 0x... not resident" otherwise */
static int
ctag_restate(CTagArray *self, PyObject *arg, long long line,
             PyObject *state)
{
    PyObject *s = self->sets[ctag_set_index(self, line)];
    int present = s == NULL ? 0 : PyDict_Contains(s, arg);
    if (present < 0)
        return -1;
    if (!present) {
        char hex[HEX_BUF];
        PyObject *msg = PyUnicode_FromFormat("line %s not resident",
                                             hex_of(hex, line));
        if (msg != NULL) {
            PyErr_SetObject(PyExc_KeyError, msg);
            Py_DECREF(msg);
        }
        return -1;
    }
    return PyDict_SetItem(s, arg, state);
}

static PyObject *
ctag_set_state(CTagArray *self, PyObject *args)
{
    PyObject *arg, *state;
    if (!PyArg_ParseTuple(args, "OO:set_state", &arg, &state))
        return NULL;
    long long line = ctag_parse_line(arg);
    if ((line == -1 && PyErr_Occurred())
            || ctag_restate(self, arg, line, state) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* insert `arg` as MRU; returns the evicted (line, state) tuple or None
 * (new reference), NULL on error */
static PyObject *
ctag_insert_impl(CTagArray *self, PyObject *arg, PyObject *state,
                 PyObject *may_evict)
{
    long long line = ctag_parse_line(arg);
    if (line == -1 && PyErr_Occurred())
        return NULL;
    long long idx = ctag_set_index(self, line);
    PyObject *s = self->sets[idx];
    if (s == NULL) {
        s = PyDict_New();
        if (s == NULL)
            return NULL;
        self->sets[idx] = s;
    }
    int present = PyDict_Contains(s, arg);
    if (present < 0)
        return NULL;
    if (present) {
        char hex[HEX_BUF];
        PyObject *msg = PyUnicode_FromFormat("line %s already resident",
                                             hex_of(hex, line));
        if (msg != NULL) {
            PyErr_SetObject(PyExc_KeyError, msg);
            Py_DECREF(msg);
        }
        return NULL;
    }
    PyObject *victim = NULL;
    if (PyDict_GET_SIZE(s) >= self->ways) {
        /* snapshot the keys so an arbitrary may_evict callback cannot
         * invalidate the iteration (dict order == LRU, first = LRU) */
        PyObject *cands = PyDict_Keys(s);
        if (cands == NULL)
            return NULL;
        Py_ssize_t n = PyList_GET_SIZE(cands);
        for (Py_ssize_t i = 0; i < n; i++) {
            PyObject *cand = PyList_GET_ITEM(cands, i);
            int ok;
            if (may_evict == Py_None)
                ok = 1;
            else {
                PyObject *r = PyObject_CallOneArg(may_evict, cand);
                if (r == NULL) {
                    Py_DECREF(cands);
                    return NULL;
                }
                ok = PyObject_IsTrue(r);
                Py_DECREF(r);
                if (ok < 0) {
                    Py_DECREF(cands);
                    return NULL;
                }
            }
            if (ok) {
                PyObject *vstate = PyDict_GetItemWithError(s, cand);
                if (vstate == NULL) {
                    Py_DECREF(cands);
                    if (!PyErr_Occurred())
                        PyErr_SetObject(PyExc_KeyError, cand);
                    return NULL;
                }
                victim = PyTuple_Pack(2, cand, vstate);
                if (victim == NULL || PyDict_DelItem(s, cand) < 0) {
                    Py_XDECREF(victim);
                    Py_DECREF(cands);
                    return NULL;
                }
                break;
            }
        }
        Py_DECREF(cands);
    }
    if (PyDict_SetItem(s, arg, state) < 0) {
        Py_XDECREF(victim);
        return NULL;
    }
    if (victim == NULL)
        Py_RETURN_NONE;
    return victim;
}

static PyObject *
ctag_insert(CTagArray *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"line_addr", "state", "may_evict", NULL};
    PyObject *arg, *state, *may_evict = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO|O:insert", kwlist,
                                     &arg, &state, &may_evict))
        return NULL;
    return ctag_insert_impl(self, arg, state, may_evict);
}

static PyObject *
ctag_invalidate(CTagArray *self, PyObject *arg)
{
    long long line = ctag_parse_line(arg);
    if (line == -1 && PyErr_Occurred())
        return NULL;
    PyObject *s = self->sets[ctag_set_index(self, line)];
    if (s == NULL)
        Py_RETURN_NONE;
    PyObject *state = PyDict_GetItemWithError(s, arg);
    if (state == NULL) {
        if (PyErr_Occurred())
            return NULL;
        Py_RETURN_NONE;
    }
    Py_INCREF(state);
    if (PyDict_DelItem(s, arg) < 0) {
        Py_DECREF(state);
        return NULL;
    }
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
 * where (x, y) is the link's *source* tile; the Python Mesh keeps its
 * Link objects only for route() geometry and reads carried bytes back
 * through carried_list() with the same index formula. */

typedef struct {
    PyObject_HEAD
    CSimulator *sim;            /* owned; guaranteed a compiled Simulator */
    long w, h, ntiles;
    long router_latency;
    long link_width;
    long long *next_free;       /* 4*w*h */
    long long *carried;         /* 4*w*h */
    PyObject **handlers;        /* ntiles entries, NULL = unregistered */
    int32_t **routes;           /* ntiles*ntiles, each NULL or [n, i0..] */
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
    int32_t **routes = PyMem_Calloc((size_t)ntiles * (size_t)ntiles,
                                    sizeof(int32_t *));
    PyObject **cat_objs = PyMem_Calloc((size_t)(n_cats ? n_cats : 1),
                                       sizeof(PyObject *));
    long long *cat_sw = PyMem_Calloc((size_t)(n_cats ? n_cats : 1),
                                     sizeof(long long));
    long long *cat_msgs = PyMem_Calloc((size_t)(n_cats ? n_cats : 1),
                                       sizeof(long long));
    if (!next_free || !carried || !handlers || !routes
            || !cat_objs || !cat_sw || !cat_msgs) {
        PyMem_Free(next_free);
        PyMem_Free(carried);
        PyMem_Free(handlers);
        PyMem_Free(routes);
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
    if (self->routes != NULL)
        for (long long i = 0;
             i < (long long)self->ntiles * self->ntiles; i++)
            PyMem_Free(self->routes[i]);
    PyMem_Free(self->routes);
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
    self->routes = routes;
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

/* XY route as link indices; cached per (src, dst).  Layout: [n, i0..in-1] */
static int32_t *
cmesh_route_idx(CMeshCore *self, long src, long dst)
{
    int32_t **slot = &self->routes[(long long)src * self->ntiles + dst];
    if (*slot != NULL)
        return *slot;
    long w = self->w, wh = self->ntiles;
    long x = src % w, y = src / w;
    long dx = dst % w, dy = dst / w;
    int32_t *buf = PyMem_Malloc((size_t)(self->w + self->h + 1)
                                * sizeof(int32_t));
    if (buf == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    int32_t n = 0;
    while (x != dx) {
        if (dx > x) {
            buf[++n] = (int32_t)(0 * wh + y * w + x);   /* east */
            x++;
        }
        else {
            buf[++n] = (int32_t)(1 * wh + y * w + x);   /* west */
            x--;
        }
    }
    while (y != dy) {
        if (dy > y) {
            buf[++n] = (int32_t)(2 * wh + y * w + x);   /* south */
            y++;
        }
        else {
            buf[++n] = (int32_t)(3 * wh + y * w + x);   /* north */
            y--;
        }
    }
    buf[0] = n;
    *slot = buf;
    return buf;
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

static PyObject *
cmesh_send(CMeshCore *self, PyObject *msg)
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
        /* a pure-Python Message constructed before the backend rebind;
         * rare, but must route identically */
        PyObject *o;
        if ((o = PyObject_GetAttrString(msg, "src")) == NULL)
            return NULL;
        src = PyLong_AsLong(o);
        Py_DECREF(o);
        if ((o = PyObject_GetAttrString(msg, "dst")) == NULL)
            return NULL;
        dst = PyLong_AsLong(o);
        Py_DECREF(o);
        if ((o = PyObject_GetAttrString(msg, "size_bytes")) == NULL)
            return NULL;
        size = PyLong_AsLong(o);
        Py_DECREF(o);
        if (PyErr_Occurred())
            return NULL;
        kind = PyObject_GetAttrString(msg, "kind");
        if (kind == NULL)
            return NULL;
        Py_DECREF(kind);                     /* msg keeps it alive */
        category = PyObject_GetAttrString(msg, "category");
        if (category == NULL)
            return NULL;
        Py_DECREF(category);
    }
    if (dst < 0 || dst >= self->ntiles || self->handlers[dst] == NULL) {
        PyObject *key = PyLong_FromLong(dst);
        if (key != NULL) {
            PyErr_SetObject(PyExc_KeyError, key);
            Py_DECREF(key);
        }
        return NULL;
    }
    PyObject *handler = self->handlers[dst];
    if (PyDict_CheckExact(handler)) {
        /* per-kind route table (the tile dispatcher, folded into C) */
        PyObject *h = PyDict_GetItemWithError(handler, kind);
        if (h == NULL) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_RuntimeError,
                             "tile %ld: unroutable message %R", dst, msg);
            return NULL;
        }
        handler = h;
    }
    CSimulator *sim = self->sim;
    long long now = sim->now;

    if (sim->tracer != Py_None) {
        PyObject *catval = PyObject_GetAttr(category, str_value);
        if (catval == NULL)
            return NULL;
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
            return NULL;
        Py_DECREF(r);
    }

    if (src == dst) {
        long long arrival = now + 1;        /* LOCAL_DELIVERY_LATENCY */
        if (csim_push(sim, arrival, handler, msg, EV_CALL1) < 0)
            return NULL;
        return PyLong_FromLongLong(arrival);
    }

    long ser = (size + self->link_width - 1) / self->link_width;
    int32_t *route = cmesh_route_idx(self, src, dst);
    if (route == NULL)
        return NULL;
    int32_t hops = route[0];
    long long per_hop = self->router_latency + ser;
    long long t = now;
    for (int32_t i = 1; i <= hops; i++) {
        int32_t li = route[i];
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
        return NULL;
    }
    self->cat_sw[ci] += (long long)size * (hops + 1);
    self->cat_msgs[ci] += 1;
    self->acc_byte_hops += (long long)size * hops;
    self->acc_traversals += hops;

    if (csim_push(sim, t, handler, msg, EV_CALL1) < 0)
        return NULL;
    return PyLong_FromLongLong(t);
}

static PyObject *
cmesh_send_proto(CMeshCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* send_proto(noc, src, dst, kind, line, extra=None): build the
     * protocol message and inject it in one call -- the fused form of
     * ``mesh.send(make_msg(...))`` the memory controllers use on every
     * transaction hop */
    if (nargs < 5 || nargs > 6) {
        PyErr_Format(PyExc_TypeError,
                     "send_proto expected 5 or 6 arguments, got %zd", nargs);
        return NULL;
    }
    long src = PyLong_AsLong(args[1]);
    long dst = PyLong_AsLong(args[2]);
    if ((src == -1 || dst == -1) && PyErr_Occurred())
        return NULL;
    if (!PyUnicode_Check(args[3])) {
        PyErr_SetString(PyExc_TypeError, "send_proto kind must be a str");
        return NULL;
    }
    PyObject *extra = nargs == 6 ? args[5] : Py_None;
    PyObject *msg = ck_build_msg(args[0], src, dst, args[3], args[4], extra);
    if (msg == NULL)
        return NULL;
    PyObject *r = cmesh_send(self, msg);
    Py_DECREF(msg);
    return r;
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
    if (self->routes != NULL)
        for (long long i = 0;
             i < (long long)self->ntiles * self->ntiles; i++)
            PyMem_Free(self->routes[i]);
    PyMem_Free(self->routes);
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
    {"send_proto", (PyCFunction)cmesh_send_proto, METH_FASTCALL,
     "Build a protocol message and inject it (fused make_msg + send)."},
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
/* L1Hit: the compiled L1 controller (repro.mem.l1)                    */
/* ------------------------------------------------------------------ */

/* The whole private-L1 MESI controller of repro.mem.l1.L1Cache, bound
 * over the instance's methods when the kernel and the tag array are
 * compiled:
 *   try_hit          tag probe, silent E->M upgrade, LRU touch,
 *                    BackingStore word op and access counter;
 *   _request         miss issue (GetS / GetM / Upgrade to the home);
 *   _complete        the word op once the fill has landed;
 *   _on_fill         fill install, with the victim's eviction notice;
 *   _on_inv          invalidation + InvAck;
 *   _handle_forward  cache-to-cache serve + Recall notice to the home;
 * plus the spin-watch wakeups.  Messages leave through ck_build_msg +
 * cmesh_send and signals fire through csignal_fire_impl, so no Python
 * frame runs per L1 protocol message.  Semantics and every error text
 * mirror the pure L1Cache, which stays the reference. */

typedef struct {
    PyObject_HEAD
    CTagArray *tags;       /* the owning L1's compiled tag array */
    PyObject *words;       /* BackingStore._words dict */
    PyObject *counters;    /* CounterSet (the rare counters go via add) */
    PyObject *accesses;    /* l1.accesses BoundCounter */
    PyObject *misses;      /* l1.misses BoundCounter */
    CMeshCore *mesh;       /* the chip's compiled mesh core */
    PyObject *noc;         /* NoCConfig (wire sizes for ck_build_msg) */
    CSignal *fill_sig;     /* fired once a fill or grant is installed */
    PyObject *watches;     /* dict line -> spin-watch Signal */
    PyObject *pending;     /* line of the outstanding miss, or NULL */
    PyObject *miss;        /* sentinel try_hit returns on a miss */
    PyObject *st_m;        /* the l1 module's MESI state objects */
    PyObject *st_e;
    PyObject *st_s;
    long core_id;
    long long line_bytes;
    long long n_tiles;
    long long word_bytes;
} CL1Hit;

static PyObject *long_zero;    /* cached int(0), created in module init */
static PyObject *str_add;      /* "add" */
static PyObject *str_c2c;      /* "l1.c2c_transfers" */
static PyObject *str_wbs;      /* "l1.writebacks" */
static PyObject *str_grant;    /* "grant" */
static PyObject *str_present;  /* "present" */
static PyObject *str_requester;  /* "requester" */

static int
cl1hit_init(CL1Hit *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"tags", "words", "counters", "accesses",
                             "misses", "mesh", "noc", "fill_sig", "watches",
                             "core_id", "line_bytes", "n_tiles", "miss",
                             "st_m", "st_e", "st_s", "word_bytes", NULL};
    PyObject *tags, *words, *counters, *accesses, *misses, *mesh, *noc;
    PyObject *fill_sig, *watches, *miss, *st_m, *st_e, *st_s;
    long core_id;
    long long line_bytes, n_tiles, word_bytes;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "O!O!OOOO!OO!O!lLLOOOOL:L1Hit", kwlist,
            &TagArray_Type, &tags, &PyDict_Type, &words, &counters,
            &accesses, &misses, &MeshCore_Type, &mesh, &noc,
            &Signal_Type, &fill_sig, &PyDict_Type, &watches, &core_id,
            &line_bytes, &n_tiles, &miss, &st_m, &st_e, &st_s,
            &word_bytes))
        return -1;
    if (line_bytes <= 0 || n_tiles <= 0 || word_bytes <= 0) {
        PyErr_SetString(PyExc_ValueError, "invalid L1 geometry");
        return -1;
    }
    Py_XSETREF(self->tags, (CTagArray *)Py_NewRef(tags));
    Py_XSETREF(self->words, Py_NewRef(words));
    Py_XSETREF(self->counters, Py_NewRef(counters));
    Py_XSETREF(self->accesses, Py_NewRef(accesses));
    Py_XSETREF(self->misses, Py_NewRef(misses));
    Py_XSETREF(self->mesh, (CMeshCore *)Py_NewRef(mesh));
    Py_XSETREF(self->noc, Py_NewRef(noc));
    Py_XSETREF(self->fill_sig, (CSignal *)Py_NewRef(fill_sig));
    Py_XSETREF(self->watches, Py_NewRef(watches));
    Py_CLEAR(self->pending);
    Py_XSETREF(self->miss, Py_NewRef(miss));
    Py_XSETREF(self->st_m, Py_NewRef(st_m));
    Py_XSETREF(self->st_e, Py_NewRef(st_e));
    Py_XSETREF(self->st_s, Py_NewRef(st_s));
    self->core_id = core_id;
    self->line_bytes = line_bytes;
    self->n_tiles = n_tiles;
    self->word_bytes = word_bytes;
    return 0;
}

static int
cl1hit_traverse(CL1Hit *self, visitproc visit, void *arg)
{
    Py_VISIT(self->tags);
    Py_VISIT(self->words);
    Py_VISIT(self->counters);
    Py_VISIT(self->accesses);
    Py_VISIT(self->misses);
    Py_VISIT(self->mesh);
    Py_VISIT(self->noc);
    Py_VISIT(self->fill_sig);
    Py_VISIT(self->watches);
    Py_VISIT(self->pending);
    Py_VISIT(self->miss);
    Py_VISIT(self->st_m);
    Py_VISIT(self->st_e);
    Py_VISIT(self->st_s);
    return 0;
}

static int
cl1hit_clear_gc(CL1Hit *self)
{
    Py_CLEAR(self->tags);
    Py_CLEAR(self->words);
    Py_CLEAR(self->counters);
    Py_CLEAR(self->accesses);
    Py_CLEAR(self->misses);
    Py_CLEAR(self->mesh);
    Py_CLEAR(self->noc);
    Py_CLEAR(self->fill_sig);
    Py_CLEAR(self->watches);
    Py_CLEAR(self->pending);
    Py_CLEAR(self->miss);
    Py_CLEAR(self->st_m);
    Py_CLEAR(self->st_e);
    Py_CLEAR(self->st_s);
    return 0;
}

static void
cl1hit_dealloc(CL1Hit *self)
{
    PyObject_GC_UnTrack(self);
    cl1hit_clear_gc(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* a == b for the state objects: they are the l1 module constants, so
 * the pointer compare normally decides; equality covers foreign strings */
static inline int
l1_is(PyObject *a, PyObject *b)
{
    return a == b ? 1 : PyObject_RichCompareBool(a, b, Py_EQ);
}

static inline int
l1_truth(PyObject *o)
{
    return o == Py_True ? 1 : (o == Py_False ? 0 : PyObject_IsTrue(o));
}

static inline long
l1_home(CL1Hit *self, long long line)
{
    /* repro.mem.address.home_of: round-robin line interleaving */
    return (long)((line / self->line_bytes) % self->n_tiles);
}

/* send one protocol message from this L1's tile (make_msg + mesh send) */
static int
l1_send(CL1Hit *self, long dst, PyObject *kind, PyObject *line,
        PyObject *extra)
{
    PyObject *msg = ck_build_msg(self->noc, self->core_id, dst, kind, line,
                                 extra);
    if (msg == NULL)
        return -1;
    PyObject *r = cmesh_send(self->mesh, msg);
    Py_DECREF(msg);
    Py_XDECREF(r);
    return r == NULL ? -1 : 0;
}

/* same, with the one-entry extra payload {key: value} */
static int
l1_send_extra(CL1Hit *self, long dst, PyObject *kind, PyObject *line,
              PyObject *key, PyObject *value)
{
    PyObject *extra = PyDict_New();
    if (extra == NULL)
        return -1;
    int rc = PyDict_SetItem(extra, key, value) < 0
        ? -1 : l1_send(self, dst, kind, line, extra);
    Py_DECREF(extra);
    return rc;
}

/* counters.add(name): keeps the counter-key order of the pure L1 */
static int
l1_count(CL1Hit *self, PyObject *name)
{
    PyObject *r = PyObject_CallMethodOneArg(self->counters, str_add, name);
    Py_XDECREF(r);
    return r == NULL ? -1 : 0;
}

/* fire the spin-watch signal of `line`, if a spinner ever armed one */
static int
l1_wake(CL1Hit *self, PyObject *line)
{
    PyObject *watch = PyDict_GetItemWithError(self->watches, line);
    if (watch == NULL)
        return PyErr_Occurred() ? -1 : 0;
    if (!PyObject_TypeCheck(watch, &Signal_Type)) {
        PyErr_Format(PyExc_TypeError, "L1 %ld: watch %R is not a compiled "
                     "Signal", self->core_id, watch);
        return -1;
    }
    return csignal_fire_impl((CSignal *)watch, Py_None);
}

/* tags.set_state + tags.touch on a resident line */
static int
l1_restate(CL1Hit *self, PyObject *line, long long l, PyObject *state)
{
    if (ctag_restate(self->tags, line, l, state) < 0)
        return -1;
    return ctag_mru(self->tags->sets[ctag_set_index(self->tags, l)], line,
                    state);
}

/* the BackingStore word op of one access (positional encoding, see
 * L1Cache.try_hit: fn -> rmw, else want_m -> store, else load) plus the
 * access counter; shared by the hit path and the miss completion */
static PyObject *
l1_word_op(CL1Hit *self, PyObject *addr, int want_m, PyObject *value,
           PyObject *fn)
{
    long long a = PyLong_AsLongLong(addr);
    if (a == -1 && PyErr_Occurred())
        return NULL;
    if (a % self->word_bytes) {
        char hex[HEX_BUF];
        PyErr_Format(PyExc_ValueError, "unaligned word address %s",
                     hex_of(hex, a));
        return NULL;
    }
    PyObject *result;
    if (fn != Py_None) {
        /* rmw: old = words.get(addr, 0); words[addr] = fn(old) */
        PyObject *old = PyDict_GetItemWithError(self->words, addr);
        if (old == NULL) {
            if (PyErr_Occurred())
                return NULL;
            old = long_zero;
        }
        Py_INCREF(old);
        PyObject *new_val = PyObject_CallOneArg(fn, old);
        if (new_val == NULL || PyDict_SetItem(self->words, addr,
                                              new_val) < 0) {
            Py_XDECREF(new_val);
            Py_DECREF(old);
            return NULL;
        }
        Py_DECREF(new_val);
        result = old;
    }
    else if (want_m) {
        /* store: pure BackingStore.write returns None */
        if (PyDict_SetItem(self->words, addr, value) < 0)
            return NULL;
        result = Py_NewRef(Py_None);
    }
    else {
        /* load */
        PyObject *v = PyDict_GetItemWithError(self->words, addr);
        if (v == NULL) {
            if (PyErr_Occurred())
                return NULL;
            v = long_zero;
        }
        result = Py_NewRef(v);
    }
    if (counter_iadd(self->accesses, 1) < 0) {
        Py_DECREF(result);
        return NULL;
    }
    return result;
}

/* unpack an incoming protocol message: its interned kind, payload and
 * line (new references) and the line's value; -1 with nothing held */
static int
l1_unpack(PyObject *msg, PyObject **kind, PyObject **payload,
          PyObject **line, long long *l)
{
    if (Py_IS_TYPE(msg, &Message_Type)) {
        *kind = Py_NewRef(((CMessage *)msg)->kind);
        *payload = Py_NewRef(((CMessage *)msg)->payload);
    }
    else {
        /* a pure-Python Message, e.g. built by hand in a test */
        *kind = PyObject_GetAttrString(msg, "kind");
        if (*kind == NULL)
            return -1;
        if (PyUnicode_CheckExact(*kind))
            PyUnicode_InternInPlace(kind);
        *payload = PyObject_GetAttrString(msg, "payload");
        if (*payload == NULL) {
            Py_CLEAR(*kind);
            return -1;
        }
    }
    *line = PyObject_GetItem(*payload, str_line);
    *l = *line == NULL ? -1 : ctag_parse_line(*line);
    if (*l == -1 && PyErr_Occurred()) {
        Py_CLEAR(*kind);
        Py_CLEAR(*payload);
        Py_CLEAR(*line);
        return -1;
    }
    return 0;
}

/* eviction notice for a fill's victim: WBData if dirty, EvictClean if
 * E, silent for S; a spinner on the victim line is woken either way */
static int
l1_evict(CL1Hit *self, PyObject *line, PyObject *state)
{
    long long l = ctag_parse_line(line);
    if (l == -1 && PyErr_Occurred())
        return -1;
    int is_m = l1_is(state, self->st_m);
    if (is_m < 0)
        return -1;
    if (is_m) {
        if (l1_count(self, str_wbs) < 0
                || l1_send(self, l1_home(self, l), k_wb_data, line,
                           Py_None) < 0)
            return -1;
    }
    else {
        int is_e = l1_is(state, self->st_e);
        if (is_e < 0 || (is_e && l1_send(self, l1_home(self, l),
                                         k_evict_clean, line, Py_None) < 0))
            return -1;
    }
    return l1_wake(self, line);
}

/* try_hit(line, want_m, addr, value, fn) -> result | MISS sentinel */
static PyObject *
cl1hit_try_hit(CL1Hit *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_Format(PyExc_TypeError,
                     "try_hit expects 5 arguments, got %zd", nargs);
        return NULL;
    }
    PyObject *line = args[0];
    int want_m = l1_truth(args[1]);
    if (want_m < 0)
        return NULL;
    long long l = ctag_parse_line(line);
    if (l == -1 && PyErr_Occurred())
        return NULL;
    PyObject *set;
    PyObject *state = ctag_probe(self->tags, line, l, &set);
    if (state == NULL)
        return PyErr_Occurred() ? NULL : Py_NewRef(self->miss);
    if (want_m) {
        int is_m = l1_is(state, self->st_m), is_e = 0;
        if (is_m < 0 || (!is_m && (is_e = l1_is(state, self->st_e)) < 0))
            return NULL;
        if (!is_m && !is_e)
            return Py_NewRef(self->miss);
        if (is_e) {
            /* silent E->M upgrade; plain assignment keeps LRU position */
            if (PyDict_SetItem(set, line, self->st_m) < 0)
                return NULL;
            state = self->st_m;
        }
    }
    if (ctag_mru(set, line, state) < 0)
        return NULL;
    return l1_word_op(self, args[2], want_m, args[3], args[4]);
}

/* _request(line, want_m) -> the fill signal the caller yields */
static PyObject *
cl1hit_request(CL1Hit *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "_request expects 2 arguments, got %zd", nargs);
        return NULL;
    }
    PyObject *line = args[0];
    int want_m = l1_truth(args[1]);
    if (want_m < 0)
        return NULL;
    long long l = ctag_parse_line(line);
    if (l == -1 && PyErr_Occurred())
        return NULL;
    PyObject *set;
    PyObject *state = ctag_probe(self->tags, line, l, &set);
    if ((state == NULL && PyErr_Occurred())
            || counter_iadd(self->misses, 1) < 0)
        return NULL;
    if (self->pending != NULL) {
        char hex[HEX_BUF];
        PyErr_Format(PyExc_RuntimeError,
                     "L1 %ld: second outstanding miss on line %s "
                     "(cores are in-order)", self->core_id, hex_of(hex, l));
        return NULL;
    }
    self->pending = Py_NewRef(line);
    /* a line still held in S needs only a dataless Upgrade grant */
    PyObject *kind = !want_m ? k_gets : (state != NULL ? k_upgrade : k_getm);
    if (l1_send(self, l1_home(self, l), kind, line, Py_None) < 0)
        return NULL;
    return Py_NewRef((PyObject *)self->fill_sig);
}

/* _complete(addr, want_m, value, fn) -> result, once the fill landed */
static PyObject *
cl1hit_complete(CL1Hit *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError,
                     "_complete expects 4 arguments, got %zd", nargs);
        return NULL;
    }
    int want_m = l1_truth(args[1]);
    if (want_m < 0)
        return NULL;
    return l1_word_op(self, args[0], want_m, args[2], args[3]);
}

/* _on_fill(msg): Data/DataE/DataM/GrantM/DataC2C delivery */
static PyObject *
cl1hit_on_fill(CL1Hit *self, PyObject *msg)
{
    PyObject *kind, *payload, *line, *set, *state, *victim = NULL;
    PyObject *new_state;
    long long l;
    int rc = -1;
    if (l1_unpack(msg, &kind, &payload, &line, &l) < 0)
        return NULL;
    int same = self->pending == NULL ? 0 : l1_is(self->pending, line);
    if (same < 0)
        goto done;
    if (!same) {
        char hex[HEX_BUF];
        PyErr_Format(PyExc_RuntimeError, "L1 %ld: fill for %s but "
                     "pending %R", self->core_id, hex_of(hex, l),
                     self->pending == NULL ? Py_None : self->pending);
        goto done;
    }
    Py_CLEAR(self->pending);
    if (kind == k_grant_m) {
        /* upgrade: the line must still be resident in S */
        if (l1_restate(self, line, l, self->st_m) < 0)
            goto done;
        rc = csignal_fire_impl(self->fill_sig, msg);
        goto done;
    }
    if (kind == k_data_c2c) {
        PyObject *extra = PyObject_GetItem(payload, str_extra);
        PyObject *grant = extra ? PyObject_GetItem(extra, str_grant) : NULL;
        int is_m = grant ? l1_is(grant, self->st_m) : -1;
        Py_XDECREF(extra);
        Py_XDECREF(grant);
        if (is_m < 0)
            goto done;
        new_state = is_m ? self->st_m : self->st_s;
    }
    else if (kind == k_data)
        new_state = self->st_s;
    else if (kind == k_data_e)
        new_state = self->st_e;
    else if (kind == k_data_m)
        new_state = self->st_m;
    else {
        PyErr_SetObject(PyExc_KeyError, kind);
        goto done;
    }
    state = ctag_probe(self->tags, line, l, &set);
    if (state != NULL) {
        /* S->M where the directory chose to send full data */
        if (l1_restate(self, line, l, new_state) < 0)
            goto done;
    }
    else if (PyErr_Occurred()
             || (victim = ctag_insert_impl(self->tags, line, new_state,
                                           Py_None)) == NULL
             || (victim != Py_None
                 && l1_evict(self, PyTuple_GET_ITEM(victim, 0),
                             PyTuple_GET_ITEM(victim, 1)) < 0))
        goto done;
    /* a cache-to-cache fill tells the home it landed (unblocks the line) */
    if (kind == k_data_c2c
            && l1_send(self, l1_home(self, l), k_unblock, line, Py_None) < 0)
        goto done;
    rc = csignal_fire_impl(self->fill_sig, msg);
done:
    Py_DECREF(kind);
    Py_DECREF(payload);
    Py_DECREF(line);
    Py_XDECREF(victim);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* _on_inv(msg): drop the line, wake its spinners, ack the home */
static PyObject *
cl1hit_on_inv(CL1Hit *self, PyObject *msg)
{
    PyObject *kind, *payload, *line;
    long long l;
    if (l1_unpack(msg, &kind, &payload, &line, &l) < 0)
        return NULL;
    PyObject *old = ctag_invalidate(self->tags, line);
    int rc = (old == NULL || l1_wake(self, line) < 0
              || l1_send(self, l1_home(self, l), k_inv_ack, line,
                         Py_None) < 0) ? -1 : 0;
    Py_XDECREF(old);
    Py_DECREF(kind);
    Py_DECREF(payload);
    Py_DECREF(line);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* _handle_forward(msg): FwdGetS/FwdGetM -- serve the requester with a
 * cache-to-cache transfer and notify the home */
static PyObject *
cl1hit_handle_forward(CL1Hit *self, PyObject *msg)
{
    PyObject *kind, *payload, *line, *set, *state, *grant, *old;
    long long l;
    long requester = -1;
    int rc = -1, dirty;
    if (l1_unpack(msg, &kind, &payload, &line, &l) < 0)
        return NULL;
    PyObject *extra = PyObject_GetItem(payload, str_extra);
    PyObject *req = extra ? PyObject_GetItem(extra, str_requester) : NULL;
    if (req != NULL)
        requester = PyLong_AsLong(req);
    Py_XDECREF(extra);
    Py_XDECREF(req);
    if (requester == -1 && PyErr_Occurred())
        goto done;
    long home = l1_home(self, l);
    state = ctag_probe(self->tags, line, l, &set);
    if (state == NULL) {
        /* already evicted; the eviction notice is ahead of this ack and
         * the home will serve the requester from its own copy */
        if (!PyErr_Occurred())
            rc = l1_send_extra(self, home, k_recall_ack, line, str_present,
                               Py_False);
        goto done;
    }
    if ((dirty = l1_is(state, self->st_m)) < 0)
        goto done;
    if (kind == k_fwd_gets) {
        if (ctag_restate(self->tags, line, l, self->st_s) < 0)
            goto done;
        grant = self->st_s;
    }
    else {
        if ((old = ctag_invalidate(self->tags, line)) == NULL)
            goto done;
        Py_DECREF(old);
        if (l1_wake(self, line) < 0)
            goto done;
        grant = self->st_m;
    }
    if (l1_count(self, str_c2c) < 0
            || l1_send_extra(self, requester, k_data_c2c, line, str_grant,
                             grant) < 0)
        goto done;
    /* notify the home (with data if we were dirty, so its L2 copy is
     * marked stale/dirty for writeback accounting) */
    rc = l1_send_extra(self, home,
                       dirty && grant == self->st_s ? k_recall_data
                                                    : k_recall_ack,
                       line, str_present, Py_True);
done:
    Py_DECREF(kind);
    Py_DECREF(payload);
    Py_DECREF(line);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef cl1hit_methods[] = {
    {"try_hit", (PyCFunction)cl1hit_try_hit, METH_FASTCALL,
     "Hit path: apply the access and return its result, or MISS."},
    {"_request", (PyCFunction)cl1hit_request, METH_FASTCALL,
     "Issue a miss's directory request; returns the fill signal."},
    {"_complete", (PyCFunction)cl1hit_complete, METH_FASTCALL,
     "Apply a missed access once its fill landed; returns its result."},
    {"_on_fill", (PyCFunction)cl1hit_on_fill, METH_O,
     "Install a data grant, upgrade grant or cache-to-cache fill."},
    {"_on_inv", (PyCFunction)cl1hit_on_inv, METH_O,
     "Drop an invalidated line and ack the home."},
    {"_handle_forward", (PyCFunction)cl1hit_handle_forward, METH_O,
     "Serve a forwarded request cache-to-cache and notify the home."},
    {NULL}
};

static PyTypeObject L1Hit_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.L1Hit",
    .tp_basicsize = sizeof(CL1Hit),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled L1 controller (see repro.mem.l1).",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)cl1hit_init,
    .tp_dealloc = (destructor)cl1hit_dealloc,
    .tp_traverse = (traverseproc)cl1hit_traverse,
    .tp_clear = (inquiry)cl1hit_clear_gc,
    .tp_methods = cl1hit_methods,
};

/* ------------------------------------------------------------------ */
/* module init                                                         */
/* ------------------------------------------------------------------ */

static PyMethodDef ckernel_module_methods[] = {
    {"configure_protocol", (PyCFunction)ck_configure_protocol, METH_VARARGS,
     "Install the protocol kind->category map and data-carrying set."},
    {"make_msg", (PyCFunction)ck_make_msg, METH_VARARGS | METH_KEYWORDS,
     "Build a protocol Message (compiled repro.mem.protocol.make_msg)."},
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
            || (str_data_bytes =
                    PyUnicode_InternFromString("data_msg_bytes")) == NULL
            || (str_control_bytes =
                    PyUnicode_InternFromString("control_msg_bytes")) == NULL)
        goto fail;

    if (PyType_Ready(&Simulator_Type) < 0
            || PyType_Ready(&Signal_Type) < 0
            || PyType_Ready(&Process_Type) < 0
            || PyType_Ready(&Message_Type) < 0
            || PyType_Ready(&TagArray_Type) < 0
            || PyType_Ready(&MeshCore_Type) < 0
            || PyType_Ready(&L1Hit_Type) < 0)
        goto fail;

    if ((long_zero = PyLong_FromLong(0)) == NULL
            || (str_add = PyUnicode_InternFromString("add")) == NULL
            || (str_c2c =
                    PyUnicode_InternFromString("l1.c2c_transfers")) == NULL
            || (str_wbs = PyUnicode_InternFromString("l1.writebacks")) == NULL
            || (str_grant = PyUnicode_InternFromString("grant")) == NULL
            || (str_present = PyUnicode_InternFromString("present")) == NULL
            || (str_requester =
                    PyUnicode_InternFromString("requester")) == NULL)
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
            || PyModule_AddObjectRef(mod, "L1Hit",
                                     (PyObject *)&L1Hit_Type) < 0
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
