/* C kernel for the fast NoC backend: the one compiled engine behind
 * repro/noc/fastsim.py.
 *
 * This is a mechanical transcription of the cycle-accurate reference
 * loop in repro/noc/interconnect.py restricted to deterministic routing
 * (whatever it cannot run, the host reruns on that reference loop).
 * Two bodies share the semantics, and the host picks between them from
 * the router count it observes:
 *
 *   - run_single    — at most 63 routers; a packet's remaining
 *                     destination set is one uint64 bitmask;
 *   - run_single_mw — multi-word masks (n_words uint64 per packet /
 *                     per next-hop table entry), opening the compiled
 *                     path to TrueNorth-scale fabrics (16x16 meshes,
 *                     large multichip boards).  Forced onto small
 *                     fabrics it measured 5-25 % slower than
 *                     run_single, so both stay.
 *
 * Semantics reproduced bit for bit:
 *   - routers arbitrate in ascending index order each cycle;
 *   - input ports are scanned round-robin, rotated by the cycle number;
 *   - a head packet splits into at most one eject group (this router's
 *     bit) plus one group per output port (precomputed next-hop masks);
 *   - at most `ej_max` ejections per router per cycle, one packet per
 *     output port per cycle, credit-based backpressure against the
 *     downstream input buffer's current occupancy;
 *   - forwards land downstream at end of cycle (one-cycle link latency);
 *   - idle gaps between injection bursts are skipped; the run stops at
 *     `deadline`, leaving undelivered packets in place.
 *
 * The only entry points are the batch ones (nocsim_run_batch /
 * nocsim_run_batch_mw); a single simulation is a batch of one.  They
 * take an array of Fabric records (router count, port layout, next-hop
 * masks, edge ids of one network), a per-schedule index into it, and
 * concatenated per-schedule packet and bucket arrays (CSR-style
 * offsets), and run every schedule in one call on its own fabric — so
 * one call can simulate the schedules of many degraded fabrics (a fault
 * campaign level) as well as a swarm on one.  Schedules run in parallel
 * with OpenMP when compiled with -fopenmp, in a plain serial loop
 * otherwise.  Every output lives in memory the host allocated and owns:
 * each schedule writes its link loads, per-port peak occupancies and
 * delivery log (meta index, destination router, cycle, hop count) into
 * its own slices of the batch's slabs (per-schedule offsets, as the
 * fabrics' and schedules' sizes differ), and its delivery count, cycle
 * count and status into its own entries of three per-schedule arrays.
 * So the output is the same bit for bit regardless of thread count or
 * of which schedules share the call, and nothing the kernel allocates
 * outlives it.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#ifdef _OPENMP
#include <omp.h>
#endif

typedef struct {
    int32_t *a;
    int32_t head;
    int32_t len;
    int32_t cap;
} Fifo;

static int fifo_push(Fifo *f, int32_t v) {
    if (f->head + f->len == f->cap) {
        if (f->head > 0) {
            memmove(f->a, f->a + f->head, (size_t)f->len * sizeof(int32_t));
            f->head = 0;
        } else {
            int32_t ncap = f->cap ? f->cap * 2 : 8;
            int32_t *na = (int32_t *)realloc(f->a, (size_t)ncap * sizeof(int32_t));
            if (!na) return -1;
            f->a = na;
            f->cap = ncap;
        }
    }
    f->a[f->head + f->len] = v;
    f->len++;
    return 0;
}

static inline int32_t fifo_pop(Fifo *f) {
    int32_t v = f->a[f->head];
    f->head++;
    f->len--;
    if (f->len == 0) f->head = 0;
    return v;
}

typedef struct {
    uint64_t *mask; /* remaining destinations, bit = router index */
    int32_t *hops;
    int32_t *meta;  /* index of the originating injection packet */
    int64_t len;
    int64_t cap;
} Pool;

static int pool_push(Pool *p, uint64_t mask, int32_t hops, int32_t meta) {
    if (p->len == p->cap) {
        int64_t ncap = p->cap * 2;
        uint64_t *nm = (uint64_t *)realloc(p->mask, (size_t)ncap * sizeof(uint64_t));
        int32_t *nh = (int32_t *)realloc(p->hops, (size_t)ncap * sizeof(int32_t));
        int32_t *nt = (int32_t *)realloc(p->meta, (size_t)ncap * sizeof(int32_t));
        if (!nm || !nh || !nt) {
            /* realloc may have succeeded partially; keep the larger
             * blocks so the final free() remains valid. */
            if (nm) p->mask = nm;
            if (nh) p->hops = nh;
            if (nt) p->meta = nt;
            return -1;
        }
        p->mask = nm; p->hops = nh; p->meta = nt;
        p->cap = ncap;
    }
    p->mask[p->len] = mask;
    p->hops[p->len] = hops;
    p->meta[p->len] = meta;
    p->len++;
    return 0;
}

/* Staged forward: lands downstream at end of cycle. */
typedef struct {
    int32_t gp;
    int32_t pid;
} Staged;

/* One network's read-only tables, built once per engine by the host. */
typedef struct {
    int32_t n_routers;
    int32_t n_flat_ports;
    const int32_t *port_base;   /* [n_routers] */
    const int32_t *nports;      /* [n_routers] 1 + degree */
    const int32_t *deg_off;     /* [n_routers+1] offsets into per-neighbor tables */
    const int32_t *nbr;         /* [deg_total] neighbor router index */
    const uint64_t *out_mask;   /* [deg_total * n_words] dst mask routed via this neighbor */
    const int32_t *out_gp;      /* [deg_total] downstream global port */
    const int32_t *out_eidx;    /* [deg_total] directed edge id */
} Fabric;

/* One schedule, single-word masks.  Writes only into the host's
 * output slices; fabric tables are read-only, so concurrent calls on
 * disjoint slices are safe.  Returns 0, or 1 on an allocation failure
 * or a delivery past the d_cap slots of its log slice (the host then
 * reruns the schedule on the reference engine). */
static int run_single(
    const Fabric *fab,
    /* config */
    int32_t capacity,
    int32_t ej_max,
    int64_t deadline,
    /* initial packets (pool prefix; meta[i] == i) */
    int64_t n_packets,
    const uint64_t *pk_mask,
    const int32_t *pk_srcgp,    /* local injection port of the source */
    /* injection schedule: buckets of pool indices per cycle */
    int64_t n_buckets,
    const int64_t *bucket_cycle,
    const int64_t *bucket_off,  /* [n_buckets+1] */
    const int32_t *bucket_pid,  /* [n_packets] */
    /* outputs (host-allocated) */
    int64_t *link_counts,       /* [n_edges], zeroed by host */
    int32_t *peaks,             /* [n_flat_ports], zeroed by host */
    int64_t d_cap,              /* slots of each delivery column below */
    int32_t *d_meta,            /* [d_cap] injection packet index */
    int32_t *d_dst,             /* [d_cap] destination router */
    int64_t *d_cycle,           /* [d_cap] delivery cycle */
    int32_t *d_hops,            /* [d_cap] hop count */
    int64_t *d_len,             /* deliveries written */
    int64_t *cycles_run
) {
    const int32_t n_routers = fab->n_routers;
    const int32_t n_flat_ports = fab->n_flat_ports;
    const int32_t *port_base = fab->port_base;
    const int32_t *nports = fab->nports;
    const int32_t *deg_off = fab->deg_off;
    const int32_t *nbr = fab->nbr;
    const uint64_t *out_mask = fab->out_mask;
    const int32_t *out_gp = fab->out_gp;
    const int32_t *out_eidx = fab->out_eidx;

    Fifo *bufs = (Fifo *)calloc((size_t)n_flat_ports, sizeof(Fifo));
    int32_t *qcount = (int32_t *)calloc((size_t)n_routers, sizeof(int32_t));
    int32_t *gp_owner = (int32_t *)malloc((size_t)n_flat_ports * sizeof(int32_t));
    Pool pool = {0};
    int status = 1; /* until the run completes */
    int64_t n_del = 0;
    Staged *staged = NULL;
    int64_t staged_cap = 256, staged_len = 0;
    staged = (Staged *)malloc((size_t)staged_cap * sizeof(Staged));

    pool.cap = n_packets > 16 ? n_packets * 2 : 64;
    pool.mask = (uint64_t *)malloc((size_t)pool.cap * sizeof(uint64_t));
    pool.hops = (int32_t *)malloc((size_t)pool.cap * sizeof(int32_t));
    pool.meta = (int32_t *)malloc((size_t)pool.cap * sizeof(int32_t));

    if (!bufs || !qcount || !gp_owner || !staged || !pool.mask || !pool.hops || !pool.meta) {
        goto cleanup;
    }
    for (int32_t i = 0; i < n_routers; i++) {
        int32_t np = nports[i];
        for (int32_t s = 0; s < np; s++) gp_owner[port_base[i] + s] = i;
    }
    for (int64_t k = 0; k < n_packets; k++) {
        pool.mask[k] = pk_mask[k];
        pool.hops[k] = 0;
        pool.meta[k] = (int32_t)k;
    }
    pool.len = n_packets;

    int64_t in_flight = 0;
    int64_t pos = 0;
    int64_t cycle = 0;
    uint64_t busy = 0; /* routers with queued packets */

    while (cycle <= deadline) {
        if (pos < n_buckets && bucket_cycle[pos] == cycle) {
            for (int64_t b = bucket_off[pos]; b < bucket_off[pos + 1]; b++) {
                int32_t pid = bucket_pid[b];
                int32_t gp = pk_srcgp[pid];
                if (fifo_push(&bufs[gp], pid)) goto cleanup;
                int32_t r = gp_owner[gp];
                qcount[r]++;
                busy |= 1ULL << r;
                in_flight++;
            }
            pos++;
        }
        if (!in_flight) {
            if (pos >= n_buckets) break;
            cycle = bucket_cycle[pos]; /* skip idle gap */
            continue;
        }

        staged_len = 0;
        uint64_t scan = busy;
        while (scan) {
            int32_t i = (int32_t)__builtin_ctzll(scan);
            scan &= scan - 1;
            int32_t np = nports[i];
            int32_t base = port_base[i];
            int32_t start = (int32_t)(cycle % np);
            uint64_t ibit = 1ULL << i;
            uint64_t outputs_used = 0;
            int32_t ejections = 0;
            int32_t d0 = deg_off[i];
            for (int32_t k = 0; k < np; k++) {
                int32_t slot = start + k;
                if (slot >= np) slot -= np;
                Fifo *dq = &bufs[base + slot];
                if (!dq->len) continue;
                int32_t pid = dq->a[dq->head];
                uint64_t mask = pool.mask[pid];
                uint64_t progressed = 0;

                if (mask & ibit) {
                    if (ejections < ej_max) {
                        ejections++;
                        if (n_del == d_cap) goto cleanup; /* slice full */
                        d_meta[n_del] = pool.meta[pid];
                        d_dst[n_del] = i;
                        d_cycle[n_del] = cycle;
                        d_hops[n_del] = pool.hops[pid];
                        n_del++;
                        progressed = ibit;
                    }
                    if (mask == ibit) {
                        if (progressed) {
                            fifo_pop(dq);
                            qcount[i]--;
                            in_flight--;
                            if (!qcount[i]) busy &= ~ibit;
                        }
                        continue;
                    }
                }

                int moved_whole = 0;
                int32_t dend = deg_off[i + 1];
                for (int32_t q = d0; q < dend; q++) {
                    uint64_t g = mask & out_mask[q];
                    if (!g) continue;
                    int32_t nb = nbr[q];
                    if ((outputs_used >> nb) & 1) continue;
                    int32_t gp2 = out_gp[q];
                    if (bufs[gp2].len >= capacity) continue; /* backpressure */
                    int32_t npid;
                    if (g == mask) {
                        pool.hops[pid]++;
                        npid = pid;
                        moved_whole = 1;
                    } else {
                        npid = (int32_t)pool.len;
                        if (pool_push(&pool, g, pool.hops[pid] + 1, pool.meta[pid])) {
                            goto cleanup;
                        }
                    }
                    if (staged_len == staged_cap) {
                        staged_cap *= 2;
                        Staged *ns = (Staged *)realloc(staged, (size_t)staged_cap * sizeof(Staged));
                        if (!ns) goto cleanup;
                        staged = ns;
                    }
                    staged[staged_len].gp = gp2;
                    staged[staged_len].pid = npid;
                    staged_len++;
                    outputs_used |= 1ULL << nb;
                    link_counts[out_eidx[q]]++;
                    progressed |= g;
                }
                if (moved_whole) {
                    fifo_pop(dq);
                    qcount[i]--;
                    in_flight--;
                    if (!qcount[i]) busy &= ~ibit;
                } else if (progressed) {
                    uint64_t remaining = mask & ~progressed;
                    if (remaining) {
                        pool.mask[pid] = remaining;
                    } else {
                        fifo_pop(dq);
                        qcount[i]--;
                        in_flight--;
                        if (!qcount[i]) busy &= ~ibit;
                    }
                }
            }
        }

        for (int64_t s = 0; s < staged_len; s++) {
            int32_t gp = staged[s].gp;
            if (fifo_push(&bufs[gp], staged[s].pid)) goto cleanup;
            if (bufs[gp].len > peaks[gp]) peaks[gp] = bufs[gp].len;
            int32_t r = gp_owner[gp];
            qcount[r]++;
            busy |= 1ULL << r;
            in_flight++;
        }
        cycle++;
    }

    *d_len = n_del;
    *cycles_run = cycle;
    status = 0;

cleanup:
    if (bufs) {
        for (int32_t g = 0; g < n_flat_ports; g++) free(bufs[g].a);
        free(bufs);
    }
    free(qcount);
    free(gp_owner);
    free(pool.mask);
    free(pool.hops);
    free(pool.meta);
    free(staged);
    return status;
}

/* ------------------------------------------------------------------ */
/* Multi-word variant: destination masks are n_words uint64 each.     */
/* ------------------------------------------------------------------ */

typedef struct {
    uint64_t *mask; /* len * nw words, packet i at mask + i * nw */
    int32_t *hops;
    int32_t *meta;
    int64_t len;
    int64_t cap;
} PoolMW;

static int pool_mw_push(PoolMW *p, int32_t nw, const uint64_t *mask,
                        int32_t hops, int32_t meta) {
    if (p->len == p->cap) {
        int64_t ncap = p->cap * 2;
        uint64_t *nm = (uint64_t *)realloc(
            p->mask, (size_t)ncap * nw * sizeof(uint64_t));
        int32_t *nh = (int32_t *)realloc(p->hops, (size_t)ncap * sizeof(int32_t));
        int32_t *nt = (int32_t *)realloc(p->meta, (size_t)ncap * sizeof(int32_t));
        if (nm) p->mask = nm;
        if (nh) p->hops = nh;
        if (nt) p->meta = nt;
        if (!nm || !nh || !nt) return -1;
        p->cap = ncap;
    }
    memcpy(p->mask + p->len * nw, mask, (size_t)nw * sizeof(uint64_t));
    p->hops[p->len] = hops;
    p->meta[p->len] = meta;
    p->len++;
    return 0;
}

/* One schedule, multi-word masks.  Same contract as run_single. */
static int run_single_mw(
    const Fabric *fab,
    int32_t n_words,
    /* config */
    int32_t capacity,
    int32_t ej_max,
    int64_t deadline,
    /* initial packets (pool prefix; meta[i] == i) */
    int64_t n_packets,
    const uint64_t *pk_mask,    /* [n_packets * n_words] */
    const int32_t *pk_srcgp,    /* local injection port of the source */
    /* injection schedule: buckets of pool indices per cycle */
    int64_t n_buckets,
    const int64_t *bucket_cycle,
    const int64_t *bucket_off,  /* [n_buckets+1] */
    const int32_t *bucket_pid,  /* [n_packets] */
    /* outputs (host-allocated) */
    int64_t *link_counts,       /* [n_edges], zeroed by host */
    int32_t *peaks,             /* [n_flat_ports], zeroed by host */
    int64_t d_cap,              /* slots of each delivery column below */
    int32_t *d_meta,            /* [d_cap] injection packet index */
    int32_t *d_dst,             /* [d_cap] destination router */
    int64_t *d_cycle,           /* [d_cap] delivery cycle */
    int32_t *d_hops,            /* [d_cap] hop count */
    int64_t *d_len,             /* deliveries written */
    int64_t *cycles_run
) {
    const int32_t nw = n_words;
    const int32_t n_routers = fab->n_routers;
    const int32_t n_flat_ports = fab->n_flat_ports;
    const int32_t *port_base = fab->port_base;
    const int32_t *nports = fab->nports;
    const int32_t *deg_off = fab->deg_off;
    /* output-port claims go through out_stamp, not neighbor ids (nbr) */
    const uint64_t *out_mask = fab->out_mask;
    const int32_t *out_gp = fab->out_gp;
    const int32_t *out_eidx = fab->out_eidx;

    int32_t deg_total = deg_off[n_routers];
    int32_t nbw = (n_routers + 63) >> 6; /* busy-mask words over routers */

    Fifo *bufs = (Fifo *)calloc((size_t)n_flat_ports, sizeof(Fifo));
    int32_t *qcount = (int32_t *)calloc((size_t)n_routers, sizeof(int32_t));
    int32_t *gp_owner = (int32_t *)malloc((size_t)n_flat_ports * sizeof(int32_t));
    uint64_t *busy = (uint64_t *)calloc((size_t)nbw, sizeof(uint64_t));
    /* Per-(router, neighbor-slot) output claim: slot q is used this
     * cycle iff out_stamp[q] == cycle (replaces the single-word
     * kernel's outputs_used bitmask, which cannot index >63 routers). */
    int64_t *out_stamp = (int64_t *)malloc((size_t)deg_total * sizeof(int64_t));
    uint64_t *hm = (uint64_t *)malloc((size_t)nw * sizeof(uint64_t));
    uint64_t *gr = (uint64_t *)malloc((size_t)nw * sizeof(uint64_t));
    uint64_t *prog = (uint64_t *)malloc((size_t)nw * sizeof(uint64_t));
    PoolMW pool = {0};
    int status = 1; /* until the run completes */
    int64_t n_del = 0;
    Staged *staged = NULL;
    int64_t staged_cap = 256, staged_len = 0;
    staged = (Staged *)malloc((size_t)staged_cap * sizeof(Staged));

    pool.cap = n_packets > 16 ? n_packets * 2 : 64;
    pool.mask = (uint64_t *)malloc((size_t)pool.cap * nw * sizeof(uint64_t));
    pool.hops = (int32_t *)malloc((size_t)pool.cap * sizeof(int32_t));
    pool.meta = (int32_t *)malloc((size_t)pool.cap * sizeof(int32_t));

    if (!bufs || !qcount || !gp_owner || !busy || !out_stamp || !hm || !gr ||
        !prog || !staged || !pool.mask || !pool.hops || !pool.meta) {
        goto cleanup;
    }
    for (int32_t i = 0; i < n_routers; i++) {
        int32_t np = nports[i];
        for (int32_t s = 0; s < np; s++) gp_owner[port_base[i] + s] = i;
    }
    for (int32_t q = 0; q < deg_total; q++) out_stamp[q] = -1;
    memcpy(pool.mask, pk_mask, (size_t)n_packets * nw * sizeof(uint64_t));
    for (int64_t k = 0; k < n_packets; k++) {
        pool.hops[k] = 0;
        pool.meta[k] = (int32_t)k;
    }
    pool.len = n_packets;

    int64_t in_flight = 0;
    int64_t pos = 0;
    int64_t cycle = 0;

    while (cycle <= deadline) {
        if (pos < n_buckets && bucket_cycle[pos] == cycle) {
            for (int64_t b = bucket_off[pos]; b < bucket_off[pos + 1]; b++) {
                int32_t pid = bucket_pid[b];
                int32_t gp = pk_srcgp[pid];
                if (fifo_push(&bufs[gp], pid)) goto cleanup;
                int32_t r = gp_owner[gp];
                qcount[r]++;
                busy[r >> 6] |= 1ULL << (r & 63);
                in_flight++;
            }
            pos++;
        }
        if (!in_flight) {
            if (pos >= n_buckets) break;
            cycle = bucket_cycle[pos]; /* skip idle gap */
            continue;
        }

        staged_len = 0;
        for (int32_t bw = 0; bw < nbw; bw++) {
            uint64_t scan = busy[bw];
            while (scan) {
                int32_t i = (bw << 6) + (int32_t)__builtin_ctzll(scan);
                scan &= scan - 1;
                int32_t np = nports[i];
                int32_t base = port_base[i];
                int32_t start = (int32_t)(cycle % np);
                int32_t iw = i >> 6;
                uint64_t ib = 1ULL << (i & 63);
                int32_t ejections = 0;
                int32_t d0 = deg_off[i];
                int32_t dend = deg_off[i + 1];
                for (int32_t k = 0; k < np; k++) {
                    int32_t slot = start + k;
                    if (slot >= np) slot -= np;
                    Fifo *dq = &bufs[base + slot];
                    if (!dq->len) continue;
                    int32_t pid = dq->a[dq->head];
                    /* Snapshot the head mask: pool forks may realloc. */
                    memcpy(hm, pool.mask + (int64_t)pid * nw,
                           (size_t)nw * sizeof(uint64_t));
                    for (int32_t w = 0; w < nw; w++) prog[w] = 0;
                    int has_prog = 0;

                    if (hm[iw] & ib) {
                        if (ejections < ej_max) {
                            ejections++;
                            if (n_del == d_cap) goto cleanup; /* slice full */
                            d_meta[n_del] = pool.meta[pid];
                            d_dst[n_del] = i;
                            d_cycle[n_del] = cycle;
                            d_hops[n_del] = pool.hops[pid];
                            n_del++;
                            prog[iw] = ib;
                            has_prog = 1;
                        }
                        int only = 1;
                        for (int32_t w = 0; w < nw; w++) {
                            uint64_t want = (w == iw) ? ib : 0;
                            if (hm[w] != want) { only = 0; break; }
                        }
                        if (only) {
                            if (has_prog) {
                                fifo_pop(dq);
                                qcount[i]--;
                                in_flight--;
                                if (!qcount[i])
                                    busy[bw] &= ~(1ULL << (i & 63));
                            }
                            continue;
                        }
                    }

                    int moved_whole = 0;
                    for (int32_t q = d0; q < dend; q++) {
                        const uint64_t *om = out_mask + (int64_t)q * nw;
                        uint64_t any = 0;
                        for (int32_t w = 0; w < nw; w++) {
                            gr[w] = hm[w] & om[w];
                            any |= gr[w];
                        }
                        if (!any) continue;
                        if (out_stamp[q] == cycle) continue;
                        int32_t gp2 = out_gp[q];
                        if (bufs[gp2].len >= capacity) continue; /* backpressure */
                        int whole = 1;
                        for (int32_t w = 0; w < nw; w++) {
                            if (gr[w] != hm[w]) { whole = 0; break; }
                        }
                        int32_t npid;
                        if (whole) {
                            pool.hops[pid]++;
                            npid = pid;
                            moved_whole = 1;
                        } else {
                            npid = (int32_t)pool.len;
                            if (pool_mw_push(&pool, nw, gr,
                                             pool.hops[pid] + 1,
                                             pool.meta[pid])) {
                                goto cleanup;
                            }
                        }
                        if (staged_len == staged_cap) {
                            staged_cap *= 2;
                            Staged *ns = (Staged *)realloc(
                                staged, (size_t)staged_cap * sizeof(Staged));
                            if (!ns) goto cleanup;
                            staged = ns;
                        }
                        staged[staged_len].gp = gp2;
                        staged[staged_len].pid = npid;
                        staged_len++;
                        out_stamp[q] = cycle;
                        link_counts[out_eidx[q]]++;
                        for (int32_t w = 0; w < nw; w++) prog[w] |= gr[w];
                        has_prog = 1;
                    }
                    if (moved_whole) {
                        fifo_pop(dq);
                        qcount[i]--;
                        in_flight--;
                        if (!qcount[i]) busy[bw] &= ~(1ULL << (i & 63));
                    } else if (has_prog) {
                        uint64_t *pm = pool.mask + (int64_t)pid * nw;
                        uint64_t rem = 0;
                        for (int32_t w = 0; w < nw; w++) {
                            pm[w] = hm[w] & ~prog[w];
                            rem |= pm[w];
                        }
                        if (!rem) {
                            fifo_pop(dq);
                            qcount[i]--;
                            in_flight--;
                            if (!qcount[i]) busy[bw] &= ~(1ULL << (i & 63));
                        }
                    }
                }
            }
        }

        for (int64_t s = 0; s < staged_len; s++) {
            int32_t gp = staged[s].gp;
            if (fifo_push(&bufs[gp], staged[s].pid)) goto cleanup;
            if (bufs[gp].len > peaks[gp]) peaks[gp] = bufs[gp].len;
            int32_t r = gp_owner[gp];
            qcount[r]++;
            busy[r >> 6] |= 1ULL << (r & 63);
            in_flight++;
        }
        cycle++;
    }

    *d_len = n_del;
    *cycles_run = cycle;
    status = 0;

cleanup:
    if (bufs) {
        for (int32_t g = 0; g < n_flat_ports; g++) free(bufs[g].a);
        free(bufs);
    }
    free(qcount);
    free(gp_owner);
    free(busy);
    free(out_stamp);
    free(hm);
    free(gr);
    free(prog);
    free(pool.mask);
    free(pool.hops);
    free(pool.meta);
    free(staged);
    return status;
}

/* ------------------------------------------------------------------ */
/* Batch entry points: all schedules of a simulate_many batch in one  */
/* call, parallel over schedules with OpenMP when available.          */
/* ------------------------------------------------------------------ */

/* 1 when the loaded kernel was compiled with OpenMP support. */
int32_t nocsim_openmp(void) {
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}

/* Fabric records are passed once; schedule s runs on
 * fabrics[fabric_of[s]], and its arrays are concatenated with CSR-style
 * offsets:
 *
 *   pk_off[S+1]   — schedule s's packets occupy [pk_off[s], pk_off[s+1])
 *                   of pk_mask (x n_words for the mw variant), pk_srcgp
 *                   and bucket_pid (pids are schedule-local);
 *   bk_off[S+1]   — schedule s's buckets occupy [bk_off[s], bk_off[s+1])
 *                   of bucket_cycle; its bucket_off slice (length
 *                   n_buckets_s + 1, values schedule-local) starts at
 *                   bucket_off + bk_off[s] + s;
 *   deadline[S]   — per-schedule stop cycle.
 *
 * Every output is a host-allocated slab or array the kernel writes
 * into and never frees:
 *
 *   link_off[S]   — schedule s's link loads start at link_counts +
 *                   link_off[s] (its fabric's edge count of them); the
 *                   slab is zeroed by the host;
 *   peak_off[S]   — schedule s's per-port peaks start at peaks +
 *                   peak_off[s] (its fabric's n_flat_ports of them);
 *                   zeroed by the host;
 *   d_off[S+1]    — schedule s's deliveries go to [d_off[s], d_off[s+1])
 *                   of the four columns d_meta, d_dst, d_cycle, d_hops;
 *                   the host sizes each slice to the schedule's expected
 *                   deliveries (every delivery clears one destination
 *                   bit, so no run makes more);
 *   d_len[S], cycles_run[S] — deliveries written and cycles run, set
 *                   when status[s] is 0;
 *   status[S]     — 0 ok, 1 on an allocation failure or a delivery past
 *                   the end of the schedule's slice.
 *
 * One call reads one buffer capacity, one ejection limit and (mw) one
 * mask width; the host puts fabrics that differ in those into separate
 * calls.  n_threads > 0 caps the OpenMP team size; <= 0 uses the
 * runtime default. */
void nocsim_run_batch(
    const Fabric *fabrics,
    const int32_t *fabric_of,
    int32_t capacity,
    int32_t ej_max,
    int64_t n_schedules,
    const int64_t *pk_off,
    const uint64_t *pk_mask,
    const int32_t *pk_srcgp,
    const int64_t *bk_off,
    const int64_t *bucket_cycle,
    const int64_t *bucket_off,
    const int32_t *bucket_pid,
    const int64_t *deadline,
    int32_t n_threads,
    const int64_t *link_off,
    int64_t *link_counts,
    const int64_t *peak_off,
    int32_t *peaks,
    const int64_t *d_off,
    int32_t *d_meta,
    int32_t *d_dst,
    int64_t *d_cycle,
    int32_t *d_hops,
    int64_t *d_len,
    int64_t *cycles_run,
    int32_t *status
) {
#ifdef _OPENMP
    int nt = n_threads > 0 ? n_threads : omp_get_max_threads();
    #pragma omp parallel for schedule(dynamic) num_threads(nt)
#else
    (void)n_threads;
#endif
    for (int64_t s = 0; s < n_schedules; s++) {
        int64_t p0 = pk_off[s];
        int64_t b0 = bk_off[s];
        int64_t d0 = d_off[s];
        status[s] = run_single(
            &fabrics[fabric_of[s]], capacity, ej_max, deadline[s],
            pk_off[s + 1] - p0, pk_mask + p0, pk_srcgp + p0,
            bk_off[s + 1] - b0, bucket_cycle + b0, bucket_off + b0 + s,
            bucket_pid + p0, link_counts + link_off[s], peaks + peak_off[s],
            d_off[s + 1] - d0, d_meta + d0, d_dst + d0, d_cycle + d0,
            d_hops + d0, &d_len[s], &cycles_run[s]);
    }
}

/* Same layout; n_words (one mask width for the whole call) follows
 * fabric_of. */
void nocsim_run_batch_mw(
    const Fabric *fabrics,
    const int32_t *fabric_of,
    int32_t n_words,
    int32_t capacity,
    int32_t ej_max,
    int64_t n_schedules,
    const int64_t *pk_off,
    const uint64_t *pk_mask,    /* [pk_off[S] * n_words] */
    const int32_t *pk_srcgp,
    const int64_t *bk_off,
    const int64_t *bucket_cycle,
    const int64_t *bucket_off,
    const int32_t *bucket_pid,
    const int64_t *deadline,
    int32_t n_threads,
    const int64_t *link_off,
    int64_t *link_counts,
    const int64_t *peak_off,
    int32_t *peaks,
    const int64_t *d_off,
    int32_t *d_meta,
    int32_t *d_dst,
    int64_t *d_cycle,
    int32_t *d_hops,
    int64_t *d_len,
    int64_t *cycles_run,
    int32_t *status
) {
#ifdef _OPENMP
    int nt = n_threads > 0 ? n_threads : omp_get_max_threads();
    #pragma omp parallel for schedule(dynamic) num_threads(nt)
#else
    (void)n_threads;
#endif
    for (int64_t s = 0; s < n_schedules; s++) {
        int64_t p0 = pk_off[s];
        int64_t b0 = bk_off[s];
        int64_t d0 = d_off[s];
        status[s] = run_single_mw(
            &fabrics[fabric_of[s]], n_words, capacity, ej_max, deadline[s],
            pk_off[s + 1] - p0, pk_mask + p0 * n_words, pk_srcgp + p0,
            bk_off[s + 1] - b0, bucket_cycle + b0, bucket_off + b0 + s,
            bucket_pid + p0, link_counts + link_off[s], peaks + peak_off[s],
            d_off[s + 1] - d0, d_meta + d0, d_dst + d0, d_cycle + d0,
            d_hops + d0, &d_len[s], &cycles_run[s]);
    }
}
