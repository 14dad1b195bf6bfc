/*
 * Compiled search kernels, the twin of degstab._purecore.
 *
 * Three entry points: hom_search, color_search and odd_girth.
 * Each runs the pure kernel's algorithm with the same tie-breaking, so
 * results, witnesses and node counts are identical. The tests compare the
 * two kernel sets output for output: change both together. hom_search
 * probes (singleton arc consistency) at the same nodes as the pure kernel,
 * under the same gate; the closure it computes is unique, so the two may
 * sweep in different orders and still agree.
 *
 * A graph argument is a sequence of adjacency bitmasks, one per vertex, of
 * order at most 64. A larger graph raises ValueError, and a mask that is
 * negative or wider than 64 bits raises OverflowError, so no input reaches
 * past the fixed 64-slot arrays below; degstab.backend routes larger graphs
 * to the pure kernels. As in the pure module, the adjacency must be
 * symmetric and loop-free, with no bit at or above the order: other masks
 * give unspecified results.
 *
 * Build in place with `python setup.py build_ext --inplace`.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <string.h>

#define MAX_ORDER 64

/* hom_search probes (see hs_probe) only for triangle-free patterns of at
   least PROBE_ORDER vertices, with at most PROBE_BUDGET values to probe for
   each node that the failed first value took. */
#define PROBE_ORDER 15
#define PROBE_BUDGET 2

/* A search into a target of at most this order first tabulates N(D) for
   every mask D of target vertices (see hs_propagate). */
#define TABLE_ORDER 10

typedef unsigned long long u64;

#if defined(__GNUC__) || defined(__clang__)
static inline int popcount(u64 x) { return __builtin_popcountll(x); }
static inline int ctz(u64 x) { return __builtin_ctzll(x); }
#else
static inline int popcount(u64 x)
{
    int c = 0;
    for (; x; x &= x - 1)
        c++;
    return c;
}
static inline int ctz(u64 x)
{
    int c = 0;
    for (; !(x & 1); x >>= 1)
        c++;
    return c;
}
#endif

static inline u64 full_mask(int n) { return n >= 64 ? ~0ULL : (1ULL << n) - 1; }

static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() expects %zd arguments, got %zd",
                 name, want, nargs);
    return -1;
}

/* Copies a graph argument into adj, zeroing the unused slots, and returns
   its order, or -1 with an exception set. */
static int read_graph(PyObject *arg, u64 adj[MAX_ORDER])
{
    PyObject *seq = PySequence_Fast(arg, "a graph must be a sequence of adjacency masks");
    if (seq == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    if (n > MAX_ORDER) {
        PyErr_Format(PyExc_ValueError,
                     "graph of order %zd is above the compiled kernels' limit of %d",
                     n, MAX_ORDER);
        Py_DECREF(seq);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(seq);
    memset(adj, 0, MAX_ORDER * sizeof(u64));
    for (Py_ssize_t i = 0; i < n; i++) {
        adj[i] = PyLong_AsUnsignedLongLong(items[i]);
        if (adj[i] == (u64)-1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);
    return (int)n;
}

/* Reads a colour count; values beyond 64 bits saturate, as the kernel
   treats any count of at least the order alike. */
static int read_count(PyObject *arg, long long *k)
{
    int overflow;
    *k = PyLong_AsLongLongAndOverflow(arg, &overflow);
    if (overflow)
        *k = overflow > 0 ? LLONG_MAX : LLONG_MIN;
    return *k == -1 && PyErr_Occurred() ? -1 : 0;
}

static PyObject *int_tuple(const int *xs, int n)
{
    PyObject *tuple = PyTuple_New(n);
    if (tuple == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        PyObject *x = PyLong_FromLong(xs[i]);
        if (x == NULL) {
            Py_DECREF(tuple);
            return NULL;
        }
        PyTuple_SET_ITEM(tuple, i, x);
    }
    return tuple;
}

/* -- hom_search ----------------------------------------------------------- */

typedef struct {
    u64 p_adj[MAX_ORDER];
    u64 t_adj[MAX_ORDER];
    u64 dom[MAX_ORDER];
    int n_p;
    int probe;
    long long nodes;
    int tabled;
    u64 unions[1 << TABLE_ORDER];
} HomSearch;

/* Arc consistency on dom from the pattern vertices in dirty. As the target
   is symmetric, the values of u with a neighbour inside dom[v] are exactly
   dom[u] & N(dom[v]), with N(D) the union of target neighbourhoods over D,
   read from s->unions when tabled. Returns 0 when a domain empties. */
static int hs_propagate(const HomSearch *s, u64 *dom, u64 dirty)
{
    while (dirty) {
        int v = ctz(dirty);
        dirty &= dirty - 1;
        u64 nv = 0;
        if (s->tabled)
            nv = s->unions[dom[v]];
        else
            for (u64 d = dom[v]; d; d &= d - 1)
                nv |= s->t_adj[ctz(d)];
        for (u64 nbrs = s->p_adj[v]; nbrs; nbrs &= nbrs - 1) {
            int u = ctz(nbrs);
            u64 nd = dom[u] & nv;
            if (nd != dom[u]) {
                if (!nd)
                    return 0;
                dom[u] = nd;
                dirty |= 1ULL << u;
            }
        }
    }
    return 1;
}

/* Singleton arc consistency over the vertices in free: a value whose
   assignment wipes out a domain is removed, and the removal propagated,
   until every value of every free domain survives its probe. The closure
   is unique, so the sweep order does not change it. Skipped when the
   domains of two or more values hold more values than budget. Here those
   vertices are swept cyclically, largest domains first (ties by index),
   until a whole sweep removes nothing. Returns 0 when a domain empties. */
static int hs_probe(HomSearch *s, u64 free, long long budget)
{
    u64 trial[MAX_ORDER];
    int order[MAX_ORDER], count = 0;
    for (; free; free &= free - 1) {
        int u = ctz(free), size = popcount(s->dom[u]), j = count;
        if (size < 2)
            continue;
        for (; j > 0 && popcount(s->dom[order[j - 1]]) < size; j--)
            order[j] = order[j - 1];
        order[j] = u;
        count++;
        budget -= size;
    }
    if (budget < 0)
        return 1;
    for (int stable = 0, i = 0; stable < count; i = i + 1 < count ? i + 1 : 0) {
        int u = order[i];
        stable++;
        for (u64 vals = s->dom[u]; vals;) {
            u64 bit = vals & -vals;
            vals ^= bit;
            memcpy(trial, s->dom, s->n_p * sizeof(u64));
            trial[u] = bit;
            if (!hs_propagate(s, trial, 1ULL << u)) {
                s->dom[u] ^= bit;
                if (!hs_propagate(s, s->dom, 1ULL << u))
                    return 0;
                vals &= s->dom[u];
                stable = 0;
            }
        }
    }
    return 1;
}

/* Calls minima(fixed) and stores the mask it returns in *out; returns -1
   with an exception set when the call or the conversion fails. */
static int call_minima(PyObject *minima, u64 fixed, u64 *out)
{
    PyObject *arg = PyLong_FromUnsignedLongLong(fixed);
    if (arg == NULL)
        return -1;
    PyObject *res = PyObject_CallOneArg(minima, arg);
    Py_DECREF(arg);
    if (res == NULL)
        return -1;
    *out = PyLong_AsUnsignedLongLong(res);
    Py_DECREF(res);
    return *out == (u64)-1 && PyErr_Occurred() ? -1 : 0;
}

/* Branches on the unassigned vertex with the smallest domain (lowest index
   on ties), values ascending; returns 1 with every domain a single value,
   0 when there is none, and -1 when a minima call raised. Once the first
   value fails and others remain, a node below the root of a search with
   s->probe set gives hs_probe PROBE_BUDGET values for each node that value
   took, and keeps the values that survive. minima (NULL for none) is
   passed at the root and one level down only: at that same point the rest
   are cut to the orbit minima of the stabiliser of the root's value (of
   nothing at the root). */
static int hs_assign(HomSearch *s, u64 unassigned, PyObject *minima)
{
    if (!unassigned)
        return 1;
    int v = -1, best = MAX_ORDER + 1;
    for (u64 rest = unassigned; rest; rest &= rest - 1) {
        int size = popcount(s->dom[ctz(rest)]);
        if (size < best) {
            best = size;
            v = ctz(rest);
        }
    }
    u64 assigned = full_mask(s->n_p) & ~unassigned;
    PyObject *below = assigned ? NULL : minima;
    u64 saved[MAX_ORDER];
    u64 vals = s->dom[v];
    long long start = s->nodes;
    int first = 1;
    while (vals) {
        u64 bit = vals & -vals;
        vals ^= bit;
        s->nodes++;
        memcpy(saved, s->dom, s->n_p * sizeof(u64));
        s->dom[v] = bit;
        if (hs_propagate(s, s->dom, 1ULL << v)) {
            int found = hs_assign(s, unassigned & ~(1ULL << v), below);
            if (found)
                return found;
        }
        memcpy(s->dom, saved, s->n_p * sizeof(u64));
        if (first && vals) {
            first = 0;
            if (s->probe && assigned) {
                if (!hs_probe(s, unassigned, PROBE_BUDGET * (s->nodes - start)))
                    return 0;
                vals &= s->dom[v];
            }
            if (minima != NULL) {
                u64 keep;
                if (call_minima(minima, assigned ? s->dom[ctz(assigned)] : 0, &keep) < 0)
                    return -1;
                vals &= keep;
            }
        }
    }
    return 0;
}

PyDoc_STRVAR(hom_search_doc,
"hom_search(p_adj, t_adj, minima=None) -> (mapping or None, nodes)\n\n"
"Search for an edge-preserving map from pattern to target; the contract of\n"
"degstab._purecore.hom_search, probing included. minima, if not None, maps\n"
"a mask F of target vertices to the mask of the least vertex of each orbit\n"
"of the pointwise stabiliser of F in Aut(T); the search uses it to cut\n"
"symmetric values at the root and one level down, which is exact and leaves\n"
"the result unchanged.");

static PyObject *hom_search(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    HomSearch s;
    if (nargs != 2 && nargs != 3) {
        PyErr_Format(PyExc_TypeError, "hom_search() expects 2 or 3 arguments, got %zd", nargs);
        return NULL;
    }
    PyObject *minima = nargs == 3 && args[2] != Py_None ? args[2] : NULL;
    int n_p = read_graph(args[0], s.p_adj);
    if (n_p < 0)
        return NULL;
    int n_t = read_graph(args[1], s.t_adj);
    if (n_t < 0)
        return NULL;
    s.n_p = n_p;
    s.nodes = 0;
    s.probe = n_p >= PROBE_ORDER;
    for (int u = 0; u < n_p && s.probe; u++)
        for (u64 nbrs = s.p_adj[u]; nbrs; nbrs &= nbrs - 1)
            if (s.p_adj[u] & s.p_adj[ctz(nbrs)])
                s.probe = 0;
    s.tabled = n_t <= TABLE_ORDER;
    if (s.tabled) {
        s.unions[0] = 0;
        for (u64 m = 1; m < 1ULL << n_t; m++)
            s.unions[m] = s.unions[m & (m - 1)] | s.t_adj[ctz(m)];
    }
    for (int i = 0; i < MAX_ORDER; i++)
        s.dom[i] = full_mask(n_t);
    if (!hs_propagate(&s, s.dom, full_mask(n_p)))
        return Py_BuildValue("(Oi)", Py_None, 0);
    int found = hs_assign(&s, full_mask(n_p), minima);
    if (found < 0)
        return NULL;
    if (!found)
        return Py_BuildValue("(OL)", Py_None, s.nodes);
    int mapping[MAX_ORDER];
    for (int i = 0; i < n_p; i++)
        mapping[i] = ctz(s.dom[i]);
    return Py_BuildValue("(NL)", int_tuple(mapping, n_p), s.nodes);
}

/* -- color_search --------------------------------------------------------- */

typedef struct {
    u64 adj[MAX_ORDER];
    u64 sat[MAX_ORDER]; /* colours seen on each vertex's coloured neighbours */
    int degs[MAX_ORDER];
    int colors[MAX_ORDER];
    int n, k;
} Coloring;

/* Colours the uncoloured vertex with the most distinct neighbour colours
   (ties: higher degree, then lower index), opening at most one new colour. */
static int color_rec(Coloring *c, int used, int done)
{
    if (done == c->n)
        return 1;
    int v = -1, best_sat = -1, best_deg = -1;
    for (int u = 0; u < c->n; u++) {
        if (c->colors[u] >= 0)
            continue;
        int sat = popcount(c->sat[u]);
        if (sat > best_sat || (sat == best_sat && c->degs[u] > best_deg)) {
            best_sat = sat;
            best_deg = c->degs[u];
            v = u;
        }
    }
    int limit = used < c->k ? used + 1 : c->k;
    for (u64 avail = ~c->sat[v] & full_mask(limit); avail; avail &= avail - 1) {
        u64 bit = avail & -avail;
        int col = ctz(bit);
        u64 touched = 0;
        c->colors[v] = col;
        for (u64 m = c->adj[v]; m; m &= m - 1) {
            int u = ctz(m);
            if (c->colors[u] < 0 && !(c->sat[u] & bit)) {
                c->sat[u] |= bit;
                touched |= 1ULL << u;
            }
        }
        if (color_rec(c, used > col + 1 ? used : col + 1, done + 1))
            return 1;
        c->colors[v] = -1;
        for (; touched; touched &= touched - 1)
            c->sat[ctz(touched)] &= ~bit;
    }
    return 0;
}

PyDoc_STRVAR(color_search_doc,
"color_search(adj, k) -> coloring or None\n\n"
"A proper coloring with at most k colors; the contract of\n"
"degstab._purecore.color_search.");

static PyObject *color_search(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Coloring c;
    long long k;
    if (check_nargs("color_search", nargs, 2) < 0)
        return NULL;
    if ((c.n = read_graph(args[0], c.adj)) < 0 || read_count(args[1], &k) < 0)
        return NULL;
    if (c.n == 0)
        return PyTuple_New(0);
    if (k <= 0)
        Py_RETURN_NONE;
    /* At most n colours are ever opened, so k above the limit acts as 64. */
    c.k = k < MAX_ORDER ? (int)k : MAX_ORDER;
    memset(c.sat, 0, sizeof c.sat);
    for (int i = 0; i < MAX_ORDER; i++) {
        c.degs[i] = popcount(c.adj[i]);
        c.colors[i] = -1;
    }
    if (!color_rec(&c, 0, 0))
        Py_RETURN_NONE;
    return int_tuple(c.colors, c.n);
}

/* -- odd_girth ------------------------------------------------------------ */

PyDoc_STRVAR(odd_girth_doc,
"odd_girth(adj) -> int\n\n"
"Length of the shortest odd cycle, or 0 when there is none; the contract of\n"
"degstab._purecore.odd_girth.");

static PyObject *odd_girth(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 adj[MAX_ORDER];
    if (check_nargs("odd_girth", nargs, 1) < 0)
        return NULL;
    int n = read_graph(args[0], adj);
    if (n < 0)
        return NULL;
    /* First 3 if some edge uv has a common neighbour. */
    for (int v = 0; v < n; v++)
        for (u64 m = adj[v] & ~full_mask(v + 1); m; m &= m - 1)
            if (adj[ctz(m)] & adj[v])
                return PyLong_FromLong(3);
    /* Otherwise BFS on the parity double cover, one vertex mask per layer:
       the states at depth d all have parity d mod 2. A start stops at the
       first odd layer that reaches it again, or once too deep to beat the
       best cycle. */
    int best = 0;
    for (int s = 0; s < n; s++) {
        u64 start = 1ULL << s, layer = start;
        u64 seen[2] = {start, 0};
        for (int d = 1; layer && (best == 0 || d < best); d++) {
            u64 reach = 0;
            for (u64 m = layer; m; m &= m - 1)
                reach |= adj[ctz(m)];
            if ((d & 1) && (reach & start)) {
                best = d;
                break;
            }
            layer = reach & ~seen[d & 1];
            seen[d & 1] |= layer;
        }
    }
    return PyLong_FromLong(best);
}

/* -- module --------------------------------------------------------------- */

#define KERNEL(name) {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, name##_doc}

static PyMethodDef fastcore_methods[] = {
    KERNEL(hom_search),
    KERNEL(color_search),
    KERNEL(odd_girth),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fastcore_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "degstab._fastcore",
    .m_doc = "Compiled search kernels of order at most 64; the twin of degstab._purecore.",
    .m_size = 0,
    .m_methods = fastcore_methods,
};

PyMODINIT_FUNC PyInit__fastcore(void) { return PyModule_Create(&fastcore_module); }
