/* repro._native._core — compiled fingerprint encoder for the explorer.
 *
 * Encoder is a byte-identical port of repro.explore.state._Encoder,
 * which stays in the tree as the differential-test oracle.  The byte
 * grammar IS the dedup key, so every branch below mirrors the Python
 * encoder case by case and in the same order; the equivalence suites
 * compare the two byte-for-byte over real searches.
 *
 * The module is import-safe without the rest of the package; the
 * Python side calls bind() once with the sentinel classes (WaitSteps,
 * Message, ...) before the first encode.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* SHA-256 (for the Random-state branch; must match hashlib exactly). */
/* ------------------------------------------------------------------ */

typedef struct {
    uint32_t state[8];
    uint64_t length;
    uint8_t buffer[64];
    size_t buffered;
} Sha256;

static const uint32_t SHA256_K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

#define ROR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static void
sha256_init(Sha256 *s)
{
    static const uint32_t iv[8] = {
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
    };
    memcpy(s->state, iv, sizeof iv);
    s->length = 0;
    s->buffered = 0;
}

static void
sha256_block(Sha256 *s, const uint8_t *p)
{
    uint32_t w[64], a, b, c, d, e, f, g, h;
    int i;
    for (i = 0; i < 16; i++) {
        w[i] = ((uint32_t)p[4 * i] << 24) | ((uint32_t)p[4 * i + 1] << 16)
             | ((uint32_t)p[4 * i + 2] << 8) | (uint32_t)p[4 * i + 3];
    }
    for (i = 16; i < 64; i++) {
        uint32_t s0 = ROR(w[i - 15], 7) ^ ROR(w[i - 15], 18) ^ (w[i - 15] >> 3);
        uint32_t s1 = ROR(w[i - 2], 17) ^ ROR(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    a = s->state[0]; b = s->state[1]; c = s->state[2]; d = s->state[3];
    e = s->state[4]; f = s->state[5]; g = s->state[6]; h = s->state[7];
    for (i = 0; i < 64; i++) {
        uint32_t S1 = ROR(e, 6) ^ ROR(e, 11) ^ ROR(e, 25);
        uint32_t ch = (e & f) ^ (~e & g);
        uint32_t t1 = h + S1 + ch + SHA256_K[i] + w[i];
        uint32_t S0 = ROR(a, 2) ^ ROR(a, 13) ^ ROR(a, 22);
        uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        uint32_t t2 = S0 + maj;
        h = g; g = f; f = e; e = d + t1;
        d = c; c = b; b = a; a = t1 + t2;
    }
    s->state[0] += a; s->state[1] += b; s->state[2] += c; s->state[3] += d;
    s->state[4] += e; s->state[5] += f; s->state[6] += g; s->state[7] += h;
}

static void
sha256_update(Sha256 *s, const uint8_t *data, size_t len)
{
    s->length += (uint64_t)len * 8;
    while (len) {
        if (s->buffered == 0 && len >= 64) {
            sha256_block(s, data);
            data += 64;
            len -= 64;
            continue;
        }
        size_t take = 64 - s->buffered;
        if (take > len)
            take = len;
        memcpy(s->buffer + s->buffered, data, take);
        s->buffered += take;
        data += take;
        len -= take;
        if (s->buffered == 64) {
            sha256_block(s, s->buffer);
            s->buffered = 0;
        }
    }
}

static void
sha256_final(Sha256 *s, uint8_t out[32])
{
    uint64_t bits = s->length;
    uint8_t pad = 0x80;
    uint8_t zero = 0;
    sha256_update(s, &pad, 1);
    s->length -= 8;  /* padding is not message length */
    while (s->buffered != 56) {
        sha256_update(s, &zero, 1);
        s->length -= 8;
    }
    uint8_t lenbuf[8];
    int i;
    for (i = 0; i < 8; i++)
        lenbuf[i] = (uint8_t)(bits >> (56 - 8 * i));
    sha256_update(s, lenbuf, 8);
    for (i = 0; i < 8; i++) {
        out[4 * i] = (uint8_t)(s->state[i] >> 24);
        out[4 * i + 1] = (uint8_t)(s->state[i] >> 16);
        out[4 * i + 2] = (uint8_t)(s->state[i] >> 8);
        out[4 * i + 3] = (uint8_t)(s->state[i]);
    }
}

/* ------------------------------------------------------------------ */
/* Growable byte buffer.                                              */
/* ------------------------------------------------------------------ */

typedef struct {
    char *p;
    Py_ssize_t len;
    Py_ssize_t cap;
} Buf;

static int
buf_init(Buf *b)
{
    b->cap = 64;
    b->len = 0;
    b->p = PyMem_Malloc((size_t)b->cap);
    return b->p == NULL ? -1 : 0;
}

static void
buf_free(Buf *b)
{
    PyMem_Free(b->p);
    b->p = NULL;
    b->len = b->cap = 0;
}

static int
buf_reserve(Buf *b, Py_ssize_t extra)
{
    if (b->len + extra <= b->cap)
        return 0;
    Py_ssize_t cap = b->cap;
    while (b->len + extra > cap)
        cap += cap;
    char *np = PyMem_Realloc(b->p, (size_t)cap);
    if (np == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    b->p = np;
    b->cap = cap;
    return 0;
}

static int
buf_put(Buf *b, const char *s, Py_ssize_t n)
{
    if (buf_reserve(b, n) < 0)
        return -1;
    memcpy(b->p + b->len, s, (size_t)n);
    b->len += n;
    return 0;
}

static int
buf_putc(Buf *b, char c)
{
    if (buf_reserve(b, 1) < 0)
        return -1;
    b->p[b->len++] = c;
    return 0;
}

/* Python bytes comparison: lexicographic, shorter-is-smaller on ties. */
static int
buf_cmp(const void *pa, const void *pb)
{
    const Buf *a = (const Buf *)pa;
    const Buf *b = (const Buf *)pb;
    Py_ssize_t m = a->len < b->len ? a->len : b->len;
    if (m > 0) {
        int c = memcmp(a->p, b->p, (size_t)m);
        if (c)
            return c;
    }
    return (a->len > b->len) - (a->len < b->len);
}

/* A growable list of child buffers, for sorted containers. */
typedef struct {
    Buf *items;
    Py_ssize_t len;
    Py_ssize_t cap;
} BufList;

static void
buflist_init(BufList *bl)
{
    bl->items = NULL;
    bl->len = bl->cap = 0;
}

static Buf *
buflist_push(BufList *bl)
{
    if (bl->len == bl->cap) {
        Py_ssize_t cap = bl->cap ? bl->cap * 2 : 8;
        Buf *ni = PyMem_Realloc(bl->items, (size_t)cap * sizeof(Buf));
        if (ni == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        bl->items = ni;
        bl->cap = cap;
    }
    Buf *b = &bl->items[bl->len];
    if (buf_init(b) < 0) {
        PyErr_NoMemory();
        return NULL;
    }
    bl->len++;
    return b;
}

static void
buflist_free(BufList *bl)
{
    Py_ssize_t i;
    for (i = 0; i < bl->len; i++)
        buf_free(&bl->items[i]);
    PyMem_Free(bl->items);
    bl->items = NULL;
    bl->len = bl->cap = 0;
}

static int
buflist_sort_join(BufList *bl, Buf *out)
{
    Py_ssize_t i;
    if (bl->len > 1)
        qsort(bl->items, (size_t)bl->len, sizeof(Buf), buf_cmp);
    for (i = 0; i < bl->len; i++) {
        if (buf_put(out, bl->items[i].p, bl->items[i].len) < 0)
            return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Module state: sentinel classes bound from Python, interned names.  */
/* ------------------------------------------------------------------ */

static PyObject *g_WaitSteps, *g_WaitUntil, *g_Message, *g_Random;
static PyObject *g_netref;      /* (Network, ReferenceNetwork, RunTrace) */
static PyObject *g_skip_attrs;  /* frozenset of plumbing attribute names */
static long g_max_depth = 40;
static int g_bound = 0;

#define MAX_STACK 64  /* > g_max_depth + 1; checked at bind time */

static PyObject *s_remaining, *s_predicate, *s_sender, *s_dest,
    *s_component, *s_payload, *s_getstate, *s_gi_frame, *s_gi_code,
    *s_co_qualname, *s_f_lasti, *s_f_locals, *s_gi_yieldfrom,
    *s_closure, *s_module, *s_qualname, *s_code, *s_co_firstlineno,
    *s_cell_contents, *s_func, *s_self_attr, *s_self_name, *s_dict,
    *s_slots, *s_items, *s_name;

static int
intern_all(void)
{
#define INTERN(var, text)                                   \
    do {                                                    \
        var = PyUnicode_InternFromString(text);             \
        if (var == NULL)                                    \
            return -1;                                      \
    } while (0)
    INTERN(s_remaining, "remaining");
    INTERN(s_predicate, "predicate");
    INTERN(s_sender, "sender");
    INTERN(s_dest, "dest");
    INTERN(s_component, "component");
    INTERN(s_payload, "payload");
    INTERN(s_getstate, "getstate");
    INTERN(s_gi_frame, "gi_frame");
    INTERN(s_gi_code, "gi_code");
    INTERN(s_co_qualname, "co_qualname");
    INTERN(s_f_lasti, "f_lasti");
    INTERN(s_f_locals, "f_locals");
    INTERN(s_gi_yieldfrom, "gi_yieldfrom");
    INTERN(s_closure, "__closure__");
    INTERN(s_module, "__module__");
    INTERN(s_qualname, "__qualname__");
    INTERN(s_code, "__code__");
    INTERN(s_co_firstlineno, "co_firstlineno");
    INTERN(s_cell_contents, "cell_contents");
    INTERN(s_func, "__func__");
    INTERN(s_self_attr, "__self__");
    INTERN(s_self_name, "self");
    INTERN(s_dict, "__dict__");
    INTERN(s_slots, "__slots__");
    INTERN(s_items, "items");
    INTERN(s_name, "__name__");
#undef INTERN
    return 0;
}

static int
require_bound(void)
{
    if (!g_bound) {
        PyErr_SetString(PyExc_RuntimeError,
                        "repro._native._core.bind() has not been called");
        return -1;
    }
    return 0;
}

/* getattr(obj, name) with AttributeError -> NULL-without-error,
 * mirroring getattr(obj, name, None) distinguished via *missing. */
static PyObject *
getattr_opt(PyObject *obj, PyObject *name, int *missing)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    *missing = 0;
    if (v == NULL) {
        if (PyErr_ExceptionMatches(PyExc_AttributeError)) {
            PyErr_Clear();
            *missing = 1;
        }
    }
    return v;
}

/* ------------------------------------------------------------------ */
/* Encoder — byte-identical port of repro.explore.state._Encoder.     */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    Py_ssize_t n;
    uint64_t ambig_mask;   /* ints in [0, n) seen at untagged positions */
    int opaque;
    long long nodes;       /* value-tree nodes visited (fp-work metric) */
    long long calls;       /* top-level enc() invocations */
    long long bytes_out;   /* bytes produced by top-level enc() calls */
} EncoderObject;

static int enc_value(EncoderObject *self, PyObject *v, int depth,
                     PyObject **stack, Buf *out);

/* Emit prefix + decimal(int-like) + suffix, e.g. b"i%d;" % value. */
static int
emit_int_token(Buf *out, const char *prefix, PyObject *num,
               const char *suffix)
{
    int overflow = 0;
    long long x;
    PyObject *owned = NULL;
    if (buf_put(out, prefix, (Py_ssize_t)strlen(prefix)) < 0)
        return -1;
    if (!PyLong_Check(num)) {
        owned = PyNumber_Index(num);
        if (owned == NULL)
            return -1;
        num = owned;
    }
    x = PyLong_AsLongLongAndOverflow(num, &overflow);
    if (!overflow) {
        if (x == -1 && PyErr_Occurred()) {
            Py_XDECREF(owned);
            return -1;
        }
        char tmp[32];
        int len = snprintf(tmp, sizeof tmp, "%lld", x);
        if (buf_put(out, tmp, len) < 0) {
            Py_XDECREF(owned);
            return -1;
        }
    }
    else {
        /* Arbitrary precision: decimal digits via the int formatter
         * (never the object's __str__, matching b"%d" semantics). */
        PyObject *dec = PyNumber_ToBase(num, 10);
        if (dec == NULL) {
            Py_XDECREF(owned);
            return -1;
        }
        Py_ssize_t dlen;
        const char *dptr = PyUnicode_AsUTF8AndSize(dec, &dlen);
        if (dptr == NULL || buf_put(out, dptr, dlen) < 0) {
            Py_DECREF(dec);
            Py_XDECREF(owned);
            return -1;
        }
        Py_DECREF(dec);
    }
    Py_XDECREF(owned);
    return buf_put(out, suffix, (Py_ssize_t)strlen(suffix));
}

/* Emit marker + type(value).__name__ + ";" (the ?/c/r branches). */
static int
emit_typename(Buf *out, char marker, PyObject *v)
{
    PyObject *name = PyObject_GetAttr((PyObject *)Py_TYPE(v), s_name);
    if (name == NULL)
        return -1;
    Py_ssize_t nlen;
    const char *nptr = PyUnicode_AsUTF8AndSize(name, &nlen);
    if (nptr == NULL) {
        Py_DECREF(name);
        return -1;
    }
    int rc = buf_putc(out, marker);
    if (rc == 0)
        rc = buf_put(out, nptr, nlen);
    if (rc == 0)
        rc = buf_putc(out, ';');
    Py_DECREF(name);
    return rc;
}

/* enc(getattr(owner, name)) */
static int
enc_attr(EncoderObject *self, PyObject *owner, PyObject *name, int depth,
         PyObject **stack, Buf *out)
{
    PyObject *v = PyObject_GetAttr(owner, name);
    if (v == NULL)
        return -1;
    int rc = enc_value(self, v, depth, stack, out);
    Py_DECREF(v);
    return rc;
}

/* Sorted-items tail shared by dict / generic-object / generator
 * locals: each item is enc(k) + enc(v) in its own buffer, the buffers
 * sorted bytewise and joined.  skip: NULL, a frozenset of keys to
 * drop, or s_self_name to drop the literal key "self". */
static int
enc_sorted_items(EncoderObject *self, PyObject *mapping, PyObject *skip,
                 int depth, PyObject **stack, Buf *out)
{
    BufList bl;
    buflist_init(&bl);
    int rc = -1;

    if (PyDict_CheckExact(mapping)) {
        PyObject *k, *v;
        Py_ssize_t pos = 0;
        while (PyDict_Next(mapping, &pos, &k, &v)) {
            if (skip == g_skip_attrs) {
                int c = PySet_Contains(g_skip_attrs, k);
                if (c < 0)
                    goto done;
                if (c)
                    continue;
            }
            else if (skip == s_self_name) {
                int c = PyObject_RichCompareBool(k, s_self_name, Py_EQ);
                if (c < 0)
                    goto done;
                if (c)
                    continue;
            }
            Buf *item = buflist_push(&bl);
            if (item == NULL)
                goto done;
            /* PyDict_Next borrows; guard against mutation during enc */
            Py_INCREF(k);
            Py_INCREF(v);
            int erc = enc_value(self, k, depth, stack, item);
            if (erc == 0)
                erc = enc_value(self, v, depth, stack, item);
            Py_DECREF(k);
            Py_DECREF(v);
            if (erc < 0)
                goto done;
        }
    }
    else {
        PyObject *items = PyObject_CallMethodNoArgs(mapping, s_items);
        if (items == NULL)
            goto done;
        PyObject *it = PyObject_GetIter(items);
        Py_DECREF(items);
        if (it == NULL)
            goto done;
        PyObject *pair;
        while ((pair = PyIter_Next(it)) != NULL) {
            PyObject *fast = PySequence_Fast(
                pair, "cannot unpack mapping item");
            Py_DECREF(pair);
            if (fast == NULL) {
                Py_DECREF(it);
                goto done;
            }
            if (PySequence_Fast_GET_SIZE(fast) != 2) {
                PyErr_SetString(PyExc_ValueError,
                                "mapping item is not a pair");
                Py_DECREF(fast);
                Py_DECREF(it);
                goto done;
            }
            PyObject *k = PySequence_Fast_GET_ITEM(fast, 0);
            PyObject *v = PySequence_Fast_GET_ITEM(fast, 1);
            int skip_it = 0;
            if (skip == g_skip_attrs) {
                skip_it = PySet_Contains(g_skip_attrs, k);
            }
            else if (skip == s_self_name) {
                skip_it = PyObject_RichCompareBool(k, s_self_name, Py_EQ);
            }
            if (skip_it < 0) {
                Py_DECREF(fast);
                Py_DECREF(it);
                goto done;
            }
            if (!skip_it) {
                Buf *item = buflist_push(&bl);
                int erc = item == NULL ? -1
                    : enc_value(self, k, depth, stack, item);
                if (erc == 0)
                    erc = enc_value(self, v, depth, stack, item);
                if (erc < 0) {
                    Py_DECREF(fast);
                    Py_DECREF(it);
                    goto done;
                }
            }
            Py_DECREF(fast);
        }
        Py_DECREF(it);
        if (PyErr_Occurred())
            goto done;
    }
    rc = buflist_sort_join(&bl, out);
done:
    buflist_free(&bl);
    return rc;
}

/* The encoder core.  Branches, and their ORDER, mirror
 * _Encoder.enc exactly: the grammar is the dedup key. */
static int
enc_value(EncoderObject *self, PyObject *v, int depth, PyObject **stack,
          Buf *out)
{
    self->nodes++;
    if (v == Py_None)
        return buf_put(out, "N;", 2);
    if (v == Py_True)  /* bool before int: True == 1 but is never a pid */
        return buf_put(out, "T;", 2);
    if (v == Py_False)
        return buf_put(out, "F;", 2);
    if (PyLong_Check(v)) {
        int overflow = 0;
        long long x = PyLong_AsLongLongAndOverflow(v, &overflow);
        if (!overflow && x == -1 && PyErr_Occurred())
            return -1;
        if (!overflow && x >= 0 && x < (long long)self->n)
            self->ambig_mask |= (uint64_t)1 << x;
        return emit_int_token(out, "i", v, ";");
    }
    if (PyFloat_Check(v)) {
        PyObject *r = PyObject_Repr(v);
        if (r == NULL)
            return -1;
        Py_ssize_t rlen;
        const char *rptr = PyUnicode_AsUTF8AndSize(r, &rlen);
        int rc = rptr == NULL ? -1 : buf_putc(out, 'f');
        if (rc == 0)
            rc = buf_put(out, rptr, rlen);
        if (rc == 0)
            rc = buf_putc(out, ';');
        Py_DECREF(r);
        return rc;
    }
    if (PyUnicode_Check(v)) {
        PyObject *raw = PyUnicode_AsEncodedString(
            v, "utf-8", "backslashreplace");
        if (raw == NULL)
            return -1;
        char head[32];
        int hlen = snprintf(head, sizeof head, "s%zd:",
                            PyBytes_GET_SIZE(raw));
        int rc = buf_put(out, head, hlen);
        if (rc == 0)
            rc = buf_put(out, PyBytes_AS_STRING(raw),
                         PyBytes_GET_SIZE(raw));
        Py_DECREF(raw);
        return rc;
    }
    if (PyBytes_Check(v)) {
        char head[32];
        int hlen = snprintf(head, sizeof head, "b%zd:",
                            PyBytes_GET_SIZE(v));
        if (buf_put(out, head, hlen) < 0)
            return -1;
        return buf_put(out, PyBytes_AS_STRING(v), PyBytes_GET_SIZE(v));
    }
    if (depth > g_max_depth) {
        self->opaque = 1;
        return emit_typename(out, '?', v);
    }
    for (int i = 0; i < depth; i++) {
        if (stack[i] == v)
            return emit_typename(out, 'c', v);
    }
    stack[depth] = v;
    depth += 1;

    if (PyTuple_Check(v) || PyList_Check(v)) {
        int is_tuple = PyTuple_Check(v);
        if (buf_putc(out, is_tuple ? '(' : '[') < 0)
            return -1;
        if (is_tuple ? PyTuple_CheckExact(v) : PyList_CheckExact(v)) {
            Py_ssize_t size =
                is_tuple ? PyTuple_GET_SIZE(v) : PyList_GET_SIZE(v);
            for (Py_ssize_t i = 0; i < size; i++) {
                PyObject *item = is_tuple ? PyTuple_GET_ITEM(v, i)
                                          : PyList_GET_ITEM(v, i);
                Py_INCREF(item);
                int rc = enc_value(self, item, depth, stack, out);
                Py_DECREF(item);
                if (rc < 0)
                    return -1;
            }
        }
        else {  /* subclass: honor its iteration protocol */
            PyObject *it = PyObject_GetIter(v);
            if (it == NULL)
                return -1;
            PyObject *item;
            while ((item = PyIter_Next(it)) != NULL) {
                int rc = enc_value(self, item, depth, stack, out);
                Py_DECREF(item);
                if (rc < 0) {
                    Py_DECREF(it);
                    return -1;
                }
            }
            Py_DECREF(it);
            if (PyErr_Occurred())
                return -1;
        }
        return buf_putc(out, is_tuple ? ')' : ']');
    }
    if (PyAnySet_Check(v)) {
        if (buf_putc(out, '{') < 0)
            return -1;
        BufList bl;
        buflist_init(&bl);
        PyObject *it = PyObject_GetIter(v);
        if (it == NULL) {
            buflist_free(&bl);
            return -1;
        }
        PyObject *item;
        int failed = 0;
        while ((item = PyIter_Next(it)) != NULL) {
            Buf *child = buflist_push(&bl);
            int rc = child == NULL ? -1
                : enc_value(self, item, depth, stack, child);
            Py_DECREF(item);
            if (rc < 0) {
                failed = 1;
                break;
            }
        }
        Py_DECREF(it);
        if (!failed && PyErr_Occurred())
            failed = 1;
        if (!failed && buflist_sort_join(&bl, out) < 0)
            failed = 1;
        buflist_free(&bl);
        if (failed)
            return -1;
        return buf_putc(out, '}');
    }
    if (PyDict_Check(v)) {
        if (buf_putc(out, '<') < 0)
            return -1;
        if (enc_sorted_items(self, v, NULL, depth, stack, out) < 0)
            return -1;
        return buf_putc(out, '>');
    }

    int isi;
    if ((isi = PyObject_IsInstance(v, g_WaitSteps)) < 0)
        return -1;
    if (isi) {
        PyObject *rem = PyObject_GetAttr(v, s_remaining);
        if (rem == NULL)
            return -1;
        int rc = emit_int_token(out, "W", rem, ";");
        Py_DECREF(rem);
        return rc;  /* a duration, never a pid */
    }
    if ((isi = PyObject_IsInstance(v, g_WaitUntil)) < 0)
        return -1;
    if (isi) {
        if (buf_putc(out, 'U') < 0)
            return -1;
        return enc_attr(self, v, s_predicate, depth, stack, out);
    }
    if ((isi = PyObject_IsInstance(v, g_Message)) < 0)
        return -1;
    if (isi) {
        /* Untagged position: sender/dest are pid-valued, so they go
         * through the plain int branch and feed the accumulator. */
        if (buf_putc(out, 'M') < 0)
            return -1;
        if (enc_attr(self, v, s_sender, depth, stack, out) < 0)
            return -1;
        if (enc_attr(self, v, s_dest, depth, stack, out) < 0)
            return -1;
        if (enc_attr(self, v, s_component, depth, stack, out) < 0)
            return -1;
        return enc_attr(self, v, s_payload, depth, stack, out);
    }
    if ((isi = PyObject_IsInstance(v, g_Random)) < 0)
        return -1;
    if (isi) {
        PyObject *state = PyObject_CallMethodNoArgs(v, s_getstate);
        if (state == NULL)
            return -1;
        PyObject *r = PyObject_Repr(state);
        Py_DECREF(state);
        if (r == NULL)
            return -1;
        Py_ssize_t rlen;
        const char *rptr = PyUnicode_AsUTF8AndSize(r, &rlen);
        if (rptr == NULL) {
            Py_DECREF(r);
            return -1;
        }
        Sha256 sha;
        uint8_t digest[32];
        sha256_init(&sha);
        sha256_update(&sha, (const uint8_t *)rptr, (size_t)rlen);
        sha256_final(&sha, digest);
        Py_DECREF(r);
        if (buf_putc(out, 'R') < 0)
            return -1;
        return buf_put(out, (const char *)digest, 32);
    }
    if (PyGen_Check(v)) {
        PyObject *frame = PyObject_GetAttr(v, s_gi_frame);
        if (frame == NULL)
            return -1;
        PyObject *code = PyObject_GetAttr(v, s_gi_code);
        if (code == NULL) {
            Py_DECREF(frame);
            return -1;
        }
        PyObject *qualname = PyObject_GetAttr(code, s_co_qualname);
        Py_DECREF(code);
        if (qualname == NULL) {
            Py_DECREF(frame);
            return -1;
        }
        int rc;
        if (frame == Py_None) {
            rc = buf_put(out, "gX", 2);
            if (rc == 0)
                rc = enc_value(self, qualname, depth, stack, out);
            Py_DECREF(frame);
            Py_DECREF(qualname);
            return rc;
        }
        rc = buf_putc(out, 'g');
        if (rc == 0)
            rc = enc_value(self, qualname, depth, stack, out);
        Py_DECREF(qualname);
        if (rc < 0) {
            Py_DECREF(frame);
            return -1;
        }
        PyObject *lasti = PyObject_GetAttr(frame, s_f_lasti);
        if (lasti == NULL) {
            Py_DECREF(frame);
            return -1;
        }
        rc = emit_int_token(out, "@", lasti, ";");
        Py_DECREF(lasti);
        if (rc < 0) {
            Py_DECREF(frame);
            return -1;
        }
        PyObject *locals = PyObject_GetAttr(frame, s_f_locals);
        Py_DECREF(frame);
        if (locals == NULL)
            return -1;
        /* "self" is covered by the owning component's walk */
        rc = enc_sorted_items(self, locals, s_self_name, depth, stack, out);
        Py_DECREF(locals);
        if (rc < 0)
            return -1;
        if (buf_putc(out, '/') < 0)
            return -1;
        return enc_attr(self, v, s_gi_yieldfrom, depth, stack, out);
    }
    if (PyFunction_Check(v)) {
        if (buf_putc(out, 'L') < 0)
            return -1;
        if (enc_attr(self, v, s_module, depth, stack, out) < 0)
            return -1;
        if (enc_attr(self, v, s_qualname, depth, stack, out) < 0)
            return -1;
        PyObject *code = PyObject_GetAttr(v, s_code);
        if (code == NULL)
            return -1;
        PyObject *lineno = PyObject_GetAttr(code, s_co_firstlineno);
        Py_DECREF(code);
        if (lineno == NULL)
            return -1;
        int rc = emit_int_token(out, "#", lineno, ";");  /* never a pid */
        Py_DECREF(lineno);
        if (rc < 0)
            return -1;
        if (buf_putc(out, '(') < 0)
            return -1;
        PyObject *closure = PyObject_GetAttr(v, s_closure);
        if (closure == NULL)
            return -1;
        if (closure != Py_None) {
            Py_ssize_t ncells = PyTuple_GET_SIZE(closure);
            for (Py_ssize_t i = 0; i < ncells; i++) {
                PyObject *cell = PyTuple_GET_ITEM(closure, i);
                if (enc_attr(self, cell, s_cell_contents, depth, stack,
                             out) < 0) {
                    Py_DECREF(closure);
                    return -1;
                }
            }
        }
        Py_DECREF(closure);
        return buf_putc(out, ')');
    }
    if (PyMethod_Check(v)) {
        if (buf_putc(out, 'm') < 0)
            return -1;
        PyObject *func = PyObject_GetAttr(v, s_func);
        if (func == NULL)
            return -1;
        int rc = enc_attr(self, func, s_qualname, depth, stack, out);
        Py_DECREF(func);
        if (rc < 0)
            return -1;
        return enc_attr(self, v, s_self_attr, depth, stack, out);
    }
    if ((isi = PyObject_IsInstance(v, g_netref)) < 0)
        return -1;
    if (isi)  /* backrefs that slipped past the skip list */
        return emit_typename(out, 'r', v);

    int missing;
    PyObject *state = getattr_opt(v, s_dict, &missing);
    if (state == NULL && !missing)
        return -1;
    if (state == NULL) {
        PyObject *slots =
            getattr_opt((PyObject *)Py_TYPE(v), s_slots, &missing);
        if (slots == NULL && !missing)
            return -1;
        if (slots != NULL) {
            /* {name: getattr(v, name) for name in slots if hasattr} —
             * built as a real dict so duplicate slot names collapse
             * exactly as in the Python comprehension. */
            state = PyDict_New();
            if (state == NULL) {
                Py_DECREF(slots);
                return -1;
            }
            PyObject *it = PyObject_GetIter(slots);
            Py_DECREF(slots);
            if (it == NULL) {
                Py_DECREF(state);
                return -1;
            }
            PyObject *nm;
            while ((nm = PyIter_Next(it)) != NULL) {
                int miss;
                PyObject *val = getattr_opt(v, nm, &miss);
                if (val == NULL && !miss) {
                    Py_DECREF(nm);
                    Py_DECREF(it);
                    Py_DECREF(state);
                    return -1;
                }
                if (val != NULL) {
                    int src = PyDict_SetItem(state, nm, val);
                    Py_DECREF(val);
                    if (src < 0) {
                        Py_DECREF(nm);
                        Py_DECREF(it);
                        Py_DECREF(state);
                        return -1;
                    }
                }
                Py_DECREF(nm);
            }
            Py_DECREF(it);
            if (PyErr_Occurred()) {
                Py_DECREF(state);
                return -1;
            }
        }
    }
    if (state != NULL) {
        int rc = buf_putc(out, 'o');
        if (rc == 0)
            rc = enc_attr(self, (PyObject *)Py_TYPE(v), s_module, depth,
                          stack, out);
        if (rc == 0)
            rc = enc_attr(self, (PyObject *)Py_TYPE(v), s_qualname, depth,
                          stack, out);
        if (rc == 0)
            rc = buf_putc(out, '<');
        if (rc == 0)
            rc = enc_sorted_items(self, state, g_skip_attrs, depth, stack,
                                  out);
        if (rc == 0)
            rc = buf_putc(out, '>');
        Py_DECREF(state);
        return rc;
    }
    self->opaque = 1;
    return emit_typename(out, '?', v);
}

/* -- Encoder: Python-visible type ---------------------------------- */

static PyObject *
Encoder_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", NULL};
    Py_ssize_t n;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "n", kwlist, &n))
        return NULL;
    if (n < 0 || n > 64) {
        PyErr_SetString(PyExc_ValueError,
                        "native encoder supports 0 <= n <= 64");
        return NULL;
    }
    EncoderObject *self = (EncoderObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->n = n;
    self->ambig_mask = 0;
    self->opaque = 0;
    self->nodes = 0;
    self->calls = 0;
    self->bytes_out = 0;
    return (PyObject *)self;
}

static PyObject *
Encoder_enc(EncoderObject *self, PyObject *v)
{
    if (require_bound() < 0)
        return NULL;
    PyObject *stack[MAX_STACK];
    Buf out;
    if (buf_init(&out) < 0)
        return PyErr_NoMemory();
    if (enc_value(self, v, 0, stack, &out) < 0) {
        buf_free(&out);
        return NULL;
    }
    self->calls++;
    self->bytes_out += out.len;
    PyObject *res = PyBytes_FromStringAndSize(out.p, out.len);
    buf_free(&out);
    return res;
}

/* -- single-crossing unit builders ----------------------------------
 * FingerprintEngine caches per-host/buffer/decision/operation units,
 * each encoded with isolated ambiguity/opacity accumulators (its
 * ``_unit`` protocol).  Done from Python that costs a closure call
 * plus four accumulator attribute round-trips per unit; these methods
 * run the whole save/encode/package/restore cycle in ONE C call and
 * return ``(bytes, ambig_mask:int, opaque:bool)``. */

typedef struct {
    uint64_t saved_mask;
    int saved_opaque;
    Buf out;
} UnitCtx;

static int
unit_enter(EncoderObject *self, UnitCtx *ctx)
{
    if (require_bound() < 0)
        return -1;
    if (buf_init(&ctx->out) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    ctx->saved_mask = self->ambig_mask;
    ctx->saved_opaque = self->opaque;
    self->ambig_mask = 0;
    self->opaque = 0;
    return 0;
}

static PyObject *
unit_exit(EncoderObject *self, UnitCtx *ctx, int rc, long long roots)
{
    PyObject *result = NULL;
    if (rc == 0) {
        PyObject *data = PyBytes_FromStringAndSize(ctx->out.p, ctx->out.len);
        PyObject *mask =
            data ? PyLong_FromUnsignedLongLong(self->ambig_mask) : NULL;
        if (data != NULL && mask != NULL &&
            (result = PyTuple_New(3)) != NULL) {
            PyTuple_SET_ITEM(result, 0, data);
            PyTuple_SET_ITEM(result, 1, mask);
            PyTuple_SET_ITEM(result, 2, PyBool_FromLong(self->opaque));
            data = mask = NULL; /* refs stolen by the tuple */
            self->calls += roots;
            self->bytes_out += ctx->out.len;
        }
        Py_XDECREF(data);
        Py_XDECREF(mask);
    }
    buf_free(&ctx->out);
    self->ambig_mask = ctx->saved_mask;
    self->opaque = ctx->saved_opaque;
    return result;
}

static PyObject *
Encoder_enc_pair(EncoderObject *self, PyObject *args)
{
    PyObject *a, *b;
    if (!PyArg_ParseTuple(args, "OO:enc_pair", &a, &b))
        return NULL;
    UnitCtx ctx;
    if (unit_enter(self, &ctx) < 0)
        return NULL;
    PyObject *stack[MAX_STACK];
    int rc = enc_value(self, a, 0, stack, &ctx.out);
    if (rc == 0)
        rc = enc_value(self, b, 0, stack, &ctx.out);
    return unit_exit(self, &ctx, rc, 2);
}

static PyObject *
Encoder_enc_decision(EncoderObject *self, PyObject *args)
{
    PyObject *component, *value;
    int postcrash;
    if (!PyArg_ParseTuple(args, "OOp:enc_decision", &component, &value,
                          &postcrash))
        return NULL;
    UnitCtx ctx;
    if (unit_enter(self, &ctx) < 0)
        return NULL;
    PyObject *stack[MAX_STACK];
    int rc = enc_value(self, component, 0, stack, &ctx.out);
    if (rc == 0)
        rc = enc_value(self, value, 0, stack, &ctx.out);
    if (rc == 0)
        rc = buf_put(&ctx.out, postcrash ? "T;" : "F;", 2);
    return unit_exit(self, &ctx, rc, 2);
}

static PyObject *
Encoder_enc_operation(EncoderObject *self, PyObject *args)
{
    PyObject *component, *kind, *opargs, *invoke, *response, *opresult;
    if (!PyArg_ParseTuple(args, "OOOOOO:enc_operation", &component, &kind,
                          &opargs, &invoke, &response, &opresult))
        return NULL;
    UnitCtx ctx;
    if (unit_enter(self, &ctx) < 0)
        return NULL;
    PyObject *stack[MAX_STACK];
    int rc = enc_value(self, component, 0, stack, &ctx.out);
    if (rc == 0)
        rc = enc_value(self, kind, 0, stack, &ctx.out);
    if (rc == 0)
        rc = enc_value(self, opargs, 0, stack, &ctx.out);
    if (rc == 0)
        rc = emit_int_token(&ctx.out, "@", invoke, ";");
    if (rc == 0) {
        if (response == Py_None)
            rc = buf_put(&ctx.out, "N;", 2);
        else
            rc = emit_int_token(&ctx.out, "@", response, ";");
    }
    if (rc == 0)
        rc = enc_value(self, opresult, 0, stack, &ctx.out);
    return unit_exit(self, &ctx, rc, 4);
}

static PyObject *
Encoder_enc_host(EncoderObject *self, PyObject *args)
{
    int started;
    PyObject *items, *tasks;
    if (!PyArg_ParseTuple(args, "pOO:enc_host", &started, &items, &tasks))
        return NULL;
    UnitCtx ctx;
    if (unit_enter(self, &ctx) < 0)
        return NULL;
    PyObject *stack[MAX_STACK];
    long long roots = 0;
    PyObject *fast_items = NULL, *fast_tasks = NULL;
    int rc = buf_putc(&ctx.out, 'H');
    if (rc == 0)
        rc = buf_put(&ctx.out, started ? "T;" : "F;", 2);
    if (rc == 0) {
        fast_items = PySequence_Fast(items, "enc_host items must be a sequence");
        if (fast_items == NULL)
            rc = -1;
    }
    if (rc == 0) {
        Py_ssize_t count = PySequence_Fast_GET_SIZE(fast_items);
        for (Py_ssize_t i = 0; rc == 0 && i < count; i++) {
            PyObject *pair = PySequence_Fast_GET_ITEM(fast_items, i);
            if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
                PyErr_SetString(PyExc_TypeError,
                                "enc_host items must be (name, component)");
                rc = -1;
                break;
            }
            rc = enc_value(self, PyTuple_GET_ITEM(pair, 0), 0, stack,
                           &ctx.out);
            if (rc == 0)
                rc = enc_value(self, PyTuple_GET_ITEM(pair, 1), 0, stack,
                               &ctx.out);
            roots += 2;
        }
    }
    if (rc == 0)
        rc = buf_putc(&ctx.out, '|');
    if (rc == 0) {
        fast_tasks = PySequence_Fast(tasks, "enc_host tasks must be a sequence");
        if (fast_tasks == NULL)
            rc = -1;
    }
    if (rc == 0) {
        Py_ssize_t count = PySequence_Fast_GET_SIZE(fast_tasks);
        for (Py_ssize_t i = 0; rc == 0 && i < count; i++) {
            PyObject *triple = PySequence_Fast_GET_ITEM(fast_tasks, i);
            if (!PyTuple_Check(triple) || PyTuple_GET_SIZE(triple) != 3) {
                PyErr_SetString(PyExc_TypeError,
                                "enc_host tasks must be (started, wait, gen)");
                rc = -1;
                break;
            }
            int task_started = PyObject_IsTrue(PyTuple_GET_ITEM(triple, 0));
            if (task_started < 0) {
                rc = -1;
                break;
            }
            rc = buf_putc(&ctx.out, 't');
            if (rc == 0)
                rc = buf_put(&ctx.out, task_started ? "T;" : "F;", 2);
            if (rc == 0)
                rc = enc_value(self, PyTuple_GET_ITEM(triple, 1), 0, stack,
                               &ctx.out);
            if (rc == 0)
                rc = enc_value(self, PyTuple_GET_ITEM(triple, 2), 0, stack,
                               &ctx.out);
            roots += 2;
        }
    }
    Py_XDECREF(fast_items);
    Py_XDECREF(fast_tasks);
    return unit_exit(self, &ctx, rc, roots);
}

static PyObject *
Encoder_get_n(EncoderObject *self, void *closure)
{
    return PyLong_FromSsize_t(self->n);
}

static PyObject *
Encoder_get_mask(EncoderObject *self, void *closure)
{
    return PyLong_FromUnsignedLongLong(self->ambig_mask);
}

static int
Encoder_set_mask(EncoderObject *self, PyObject *value, void *closure)
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete ambig_mask");
        return -1;
    }
    unsigned long long mask = PyLong_AsUnsignedLongLong(value);
    if (mask == (unsigned long long)-1 && PyErr_Occurred())
        return -1;
    self->ambig_mask = mask;
    return 0;
}

static PyObject *
Encoder_get_nodes(EncoderObject *self, void *closure)
{
    return PyLong_FromLongLong(self->nodes);
}

static PyObject *
Encoder_get_calls(EncoderObject *self, void *closure)
{
    return PyLong_FromLongLong(self->calls);
}

static PyObject *
Encoder_get_bytes(EncoderObject *self, void *closure)
{
    return PyLong_FromLongLong(self->bytes_out);
}

static PyObject *
Encoder_get_ambig(EncoderObject *self, void *closure)
{
    PyObject *result = PySet_New(NULL);
    if (result == NULL)
        return NULL;
    uint64_t mask = self->ambig_mask;
    for (int bit = 0; mask; bit++, mask >>= 1) {
        if (mask & 1) {
            PyObject *num = PyLong_FromLong(bit);
            if (num == NULL || PySet_Add(result, num) < 0) {
                Py_XDECREF(num);
                Py_DECREF(result);
                return NULL;
            }
            Py_DECREF(num);
        }
    }
    return result;
}

static int
Encoder_set_ambig(EncoderObject *self, PyObject *value, void *closure)
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete ambig");
        return -1;
    }
    uint64_t mask = 0;
    PyObject *it = PyObject_GetIter(value);
    if (it == NULL)
        return -1;
    PyObject *item;
    while ((item = PyIter_Next(it)) != NULL) {
        long long x = PyLong_AsLongLong(item);
        Py_DECREF(item);
        if (x == -1 && PyErr_Occurred()) {
            Py_DECREF(it);
            return -1;
        }
        if (x < 0 || x >= 64) {
            PyErr_SetString(PyExc_ValueError,
                            "ambig members must be in [0, 64)");
            Py_DECREF(it);
            return -1;
        }
        mask |= (uint64_t)1 << x;
    }
    Py_DECREF(it);
    if (PyErr_Occurred())
        return -1;
    self->ambig_mask = mask;
    return 0;
}

static PyObject *
Encoder_get_opaque(EncoderObject *self, void *closure)
{
    return PyBool_FromLong(self->opaque);
}

static int
Encoder_set_opaque(EncoderObject *self, PyObject *value, void *closure)
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete opaque");
        return -1;
    }
    int truth = PyObject_IsTrue(value);
    if (truth < 0)
        return -1;
    self->opaque = truth;
    return 0;
}

static PyMethodDef Encoder_methods[] = {
    {"enc", (PyCFunction)Encoder_enc, METH_O,
     "Canonical self-delimiting byte encoding of a Python value."},
    {"enc_pair", (PyCFunction)Encoder_enc_pair, METH_VARARGS,
     "Encode two values as one isolated unit -> (bytes, mask, opaque)."},
    {"enc_decision", (PyCFunction)Encoder_enc_decision, METH_VARARGS,
     "Encode (component, value, postcrash) -> (bytes, mask, opaque)."},
    {"enc_operation", (PyCFunction)Encoder_enc_operation, METH_VARARGS,
     "Encode (component, kind, args, invoke, response, result) as one "
     "unit -> (bytes, mask, opaque)."},
    {"enc_host", (PyCFunction)Encoder_enc_host, METH_VARARGS,
     "Encode (started, [(name, component)], [(started, wait, gen)]) as "
     "one host unit -> (bytes, mask, opaque)."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef Encoder_getset[] = {
    {"n", (getter)Encoder_get_n, NULL, NULL, NULL},
    {"nodes", (getter)Encoder_get_nodes, NULL,
     "Value-tree nodes encoded so far (the fp-work metric).", NULL},
    {"calls", (getter)Encoder_get_calls, NULL,
     "Top-level enc() invocations (explore_native_calls).", NULL},
    {"bytes_encoded", (getter)Encoder_get_bytes, NULL,
     "Total bytes produced by enc() (native_encode_bytes).", NULL},
    {"ambig", (getter)Encoder_get_ambig, (setter)Encoder_set_ambig,
     "Ints in [0, n) seen at untagged positions (as a set).", NULL},
    {"ambig_mask", (getter)Encoder_get_mask, (setter)Encoder_set_mask,
     "The ambiguity accumulator as a raw bit mask (bit p = pid p).",
     NULL},
    {"opaque", (getter)Encoder_get_opaque, (setter)Encoder_set_opaque,
     "Whether an unencodable value was reached.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject EncoderType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native._core.Encoder",
    .tp_basicsize = sizeof(EncoderObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Compiled port of repro.explore.state._Encoder.",
    .tp_new = Encoder_new,
    .tp_methods = Encoder_methods,
    .tp_getset = Encoder_getset,
};

/* ------------------------------------------------------------------ */
/* Module                                                             */
/* ------------------------------------------------------------------ */

static PyObject *
core_bind(PyObject *module, PyObject *args)
{
    PyObject *wait_steps, *wait_until, *message, *rnd, *network,
        *reference, *run_trace, *skip_attrs;
    long max_depth;
    if (!PyArg_ParseTuple(args, "OOOOOOOOl", &wait_steps, &wait_until,
                          &message, &rnd, &network, &reference,
                          &run_trace, &skip_attrs, &max_depth))
        return NULL;
    if (max_depth < 0 || max_depth > MAX_STACK - 2) {
        PyErr_Format(PyExc_ValueError,
                     "max_depth must be in [0, %d]", MAX_STACK - 2);
        return NULL;
    }
    PyObject *netref = PyTuple_Pack(3, network, reference, run_trace);
    if (netref == NULL)
        return NULL;
    Py_INCREF(wait_steps);
    Py_XSETREF(g_WaitSteps, wait_steps);
    Py_INCREF(wait_until);
    Py_XSETREF(g_WaitUntil, wait_until);
    Py_INCREF(message);
    Py_XSETREF(g_Message, message);
    Py_INCREF(rnd);
    Py_XSETREF(g_Random, rnd);
    Py_XSETREF(g_netref, netref);
    Py_INCREF(skip_attrs);
    Py_XSETREF(g_skip_attrs, skip_attrs);
    g_max_depth = max_depth;
    g_bound = 1;
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"bind", core_bind, METH_VARARGS,
     "bind(WaitSteps, WaitUntil, Message, Random, Network, "
     "ReferenceNetwork, RunTrace, skip_attrs, max_depth) — register "
     "the sentinel classes the encoder dispatches on."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._native._core",
    .m_doc = "Compiled fingerprint encoder.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    if (intern_all() < 0)
        return NULL;
    PyObject *m = PyModule_Create(&core_module);
    if (m == NULL)
        return NULL;
    if (PyType_Ready(&EncoderType) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&EncoderType);
    if (PyModule_AddObject(m, "Encoder", (PyObject *)&EncoderType) < 0) {
        Py_DECREF(&EncoderType);
        Py_DECREF(m);
        return NULL;
    }
    if (PyModule_AddIntConstant(m, "VERSION", 1) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
