/* Native symmetry-folded execution engine for the Snitch cluster model.
 *
 * This is a cycle-exact port of the hot simulation loop in
 * repro/snitch/cluster.py (and the per-instruction semantics it inlines from
 * core.py / fpu.py / ssr.py / tcdm.py) to C.  It exists purely for speed:
 * every architectural and timing decision below mirrors the Python engine
 * decision-for-decision, in the same order, charging the same counters, so
 * that results are bit-identical (verified by tests/test_golden_cycles.py and
 * the cross-engine tests in tests/test_native_engine.py).
 *
 * The "symmetry fold" is structural: every core executes from a decoded
 * program table (decoded once per program object and reused across runs,
 * not once per cycle), per-core state lives in flat structure-of-arrays
 * records, and TCDM bank arbitration for the whole cluster resolves against
 * a single 64-bit busy mask per cycle instead of a Python set.  Bank count
 * and width are powers of two (anything else runs on the Python engine), so
 * an address maps to its bank with a shift and a mask derived once per run.
 *
 * Compiled on demand by repro.snitch.native (gcc -O3 -fno-fast-math
 * -ffp-contract=off -fwrapv) and loaded through Python's ctypes; the ctypes
 * structures and prototypes are generated from the declarations between
 * the CDEF markers, so this file is the only definition of the ABI (layout
 * is additionally guarded by the nat_sizeof_* checks at load time).  Keep
 * that block to the subset the generator reads: typedef'd structs of
 * int64_t / double / uint8_t scalars, pointers and fixed-size arrays, and
 * prototypes over those types.
 *
 * Floating-point note: CPython float arithmetic is IEEE-754 double precision
 * with round-to-nearest, which is exactly C `double` arithmetic on every
 * platform this repo targets, PROVIDED the compiler neither contracts a*b+c
 * into fused multiply-adds nor relaxes FP semantics — hence the mandatory
 * -ffp-contract=off -fno-fast-math flags in the builder.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* ---- shared declarations ---------------------------------------------- */
/*CDEF-BEGIN*/

typedef struct {
    /* configuration (StreamConfig) */
    int64_t cfg_write, cfg_indirect, idx_base, idx_count, idx_size;
    int64_t dims, bounds[4], strides[4], base;
    int64_t indirect_capable;
    /* dynamic stream state */
    double  fifo[64];
    int64_t fifo_head, fifo_len;
    int64_t launch_base, remaining, idx_pos;
    int64_t idxq_addr[8], idxq_bank[8];
    int64_t idxq_head, idxq_len;
    int64_t affine_active, affine_remaining, seq_pos;
    int64_t active;
    /* statistics (mirror DataMover's counter structure) */
    int64_t cum_data, cum_idx, word_i, denied_data, denied_idx;
} NatMover;

typedef struct {
    int64_t kind;   /* -1 none, 0 single instruction, 1 FREP block */
    int64_t a;      /* instruction index | FREP body start */
    int64_t b;      /* dispatch address  | FREP body length */
    int64_t c;      /* unused            | FREP repetitions */
} NatQItem;

typedef struct {
    int64_t pc, plen, stall_until, finished, finish_cycle;
    int64_t int_retired;
    /* integer-pipeline stall counters: CoreStallCounters' fields */
    int64_t offload_full, ssr_launch, barrier, icache;
    int64_t branch, lsu_conflict, div;
    int64_t iregs[32];
    double  fregs[32];
    int64_t scoreboard[32];
    /* FPU sequencer */
    NatQItem q[64];
    int64_t q_head, q_len;
    NatQItem cur;
    int64_t blk_inst, blk_rep;
    /* FPU counters: FpuStats' slots */
    int64_t issued_compute, issued_mem, issued_move, flops;
    int64_t stall_ssr_read, stall_ssr_write, stall_raw, stall_mem, idle_empty;
    /* SSR unit */
    int64_t ssr_enabled, any_active;
    NatMover movers[4];
    /* shared decoded program + icache memos */
    int64_t *prog;
    uint8_t *resident;
    uint8_t *line_present;
    int64_t hart_id;
} NatCore;

typedef struct {
    /* One strided DMA transfer descriptor (mirrors DmaTransfer). */
    int64_t src, dst, inner_bytes, outer_reps, src_stride, dst_stride;
    int64_t plane_reps, src_plane_stride, dst_plane_stride;
} NatDmaTransfer;

typedef struct {
    /* ABI handshake: the caller stamps both fields before every nat_run
     * call; a mismatch returns NAT_HANDSHAKE instead of reading a struct
     * whose layout the two sides disagree about. */
    int64_t magic, abi;
    /* num_banks and bank_width must be powers of two. */
    int64_t num_cores, num_banks, bank_width, tcdm_base, tcdm_size;
    int64_t line_insts, miss_penalty, branch_penalty;
    int64_t fpu_latency, fpu_load_latency, offload_depth, frep_max;
    int64_t num_streams, fifo_depth, div_latency;
    int64_t start_cycle, max_cycles;
    /* Hard cycle ceiling independent of max_cycles (0 = disabled): a
     * runaway run returns NAT_WATCHDOG instead of spinning. */
    int64_t watchdog;
    uint8_t *tcdm;
    NatCore *cores;
    /* cluster DMA engine (mirrors DmaEngine's countdown + bulk copy) */
    uint8_t *main_mem;
    int64_t main_base, main_size;
    int64_t dma_bus_bytes, dma_row_setup, dma_transfer_setup;
    NatDmaTransfer *dma_queue;
    int64_t dma_queue_len, dma_queue_pos;
    int64_t dma_remaining, dma_bytes_moved, dma_busy_cycles, dma_completed;
    int64_t wait_for_dma;
    /* derived by nat_run from num_banks / bank_width (caller leaves zero) */
    int64_t bank_shift, bank_mask;
    /* outputs */
    int64_t cycle;
    int64_t icache_hits, icache_misses;
    int64_t tcdm_total, tcdm_granted, tcdm_conflicts;
    int64_t *miss_log;
    int64_t miss_log_cap, miss_log_len;
    int64_t err, err_hart, err_pc, err_addr;
} NatCluster;

int64_t nat_run(NatCluster *cl);
int64_t nat_abi(void);
int64_t nat_sizeof_mover(void);
int64_t nat_sizeof_qitem(void);
int64_t nat_sizeof_core(void);
int64_t nat_sizeof_cluster(void);
int64_t nat_sizeof_dma(void);

/*CDEF-END*/

/* ---- error codes (mirrored in repro.snitch.native) --------------------- */
#define NAT_OK          0
#define NAT_MAX_CYCLES  1
#define NAT_MEM_RANGE   2
#define NAT_SSR_MISUSE  3
#define NAT_INTERNAL    4
#define NAT_HANDSHAKE   5
#define NAT_DECODE      6
#define NAT_BOUNDS      7
#define NAT_WATCHDOG    8

#define NAT_ABI_VERSION 4

/* "NAT" + ABI digit, stamped by the Python caller before every nat_run. */
#define NAT_MAGIC       0x4E415434ll

/* decoded-program columns (mirrored in repro.snitch.native._decode) */
#define NCOL 12
#define C_OP 0
#define C_RD 1
#define C_RS1 2
#define C_RS2 3
#define C_RS3 4
#define C_IMM 5
#define C_IMM2 6
#define C_TGT 7
#define C_A0 8
#define C_A1 9
#define C_A2 10
#define C_A3 11

/* opcodes */
#define OP_RETIRE 1
#define OP_ALU_RR 2
#define OP_ALU_RI 3
#define OP_LI 4
#define OP_AUIPC 5
#define OP_MV 6
#define OP_LOAD 7
#define OP_STORE 8
#define OP_BRANCH 9
#define OP_JUMP 10
#define OP_CSRR 11
#define OP_DIV 12
#define OP_FREP 13
#define OP_FP 14
#define OP_SSR_ENABLE 15
#define OP_SSR_DISABLE 16
#define OP_SSR_BARRIER 17
#define OP_CFG_IDX 18
#define OP_CFG_IDXSIZE 19
#define OP_CFG_DIMS 20
#define OP_CFG_BOUND 21
#define OP_CFG_STRIDE 22
#define OP_CFG_BASE 23
#define OP_CFG_WRITE 24
#define OP_LAUNCH 25
#define OP_START 26

/* FP kinds (AUX0 of OP_FP rows) */
#define FP_FMADD 0
#define FP_FMSUB 1
#define FP_FNMADD 2
#define FP_FNMSUB 3
#define FP_FADD 10
#define FP_FSUB 11
#define FP_FMUL 12
#define FP_FDIV 13
#define FP_FMIN 14
#define FP_FMAX 15
#define FP_FSGNJ 16
#define FP_FSGNJN 17
#define FP_FSGNJX 18
#define FP_FMV 30
#define FP_FABS 31
#define FP_FCVT 40
#define FP_FLD 50
#define FP_FSD 51

#define U32 0xFFFFFFFFll

int64_t nat_abi(void) { return NAT_ABI_VERSION; }
int64_t nat_sizeof_mover(void) { return (int64_t)sizeof(NatMover); }
int64_t nat_sizeof_qitem(void) { return (int64_t)sizeof(NatQItem); }
int64_t nat_sizeof_core(void) { return (int64_t)sizeof(NatCore); }
int64_t nat_sizeof_cluster(void) { return (int64_t)sizeof(NatCluster); }
int64_t nat_sizeof_dma(void) { return (int64_t)sizeof(NatDmaTransfer); }

/* ---- helpers ----------------------------------------------------------- */

/* Record the first error with its faulting location; later errors in the
 * same run never overwrite the original fault. */
static void nat_fail(NatCluster *cl, int64_t code, int64_t hart, int64_t pc,
                     int64_t addr)
{
    if (cl->err)
        return;
    cl->err = code;
    cl->err_hart = hart;
    cl->err_pc = pc;
    cl->err_addr = addr;
}

static inline int64_t floordiv64(int64_t a, int64_t b)
{
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        q -= 1;
    return q;
}

static inline int64_t floormod64(int64_t a, int64_t b)
{
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0)))
        r += b;
    return r;
}

static inline int64_t wrap32(int64_t v)
{
    v &= U32;
    return v >= 0x80000000ll ? v - 0x100000000ll : v;
}

static inline void wreg(NatCore *co, int64_t rd, int64_t value)
{
    if (rd != 0)
        co->iregs[rd] = wrap32(value);
}

/* (addr // bank_width) % num_banks for power-of-two geometries: the
 * arithmetic shift floors negative addresses like Python's //, and the mask
 * is a floor modulo in two's complement. */
static inline int64_t bank_of(const NatCluster *cl, int64_t addr)
{
    return (addr >> cl->bank_shift) & cl->bank_mask;
}

static inline int is_pow2(int64_t v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

static inline double mem_read_f64(const NatCluster *cl, int64_t addr, int *err)
{
    int64_t off = addr - cl->tcdm_base;
    double v;
    if (off < 0 || off > cl->tcdm_size - 8) {
        *err = 1;
        return 0.0;
    }
    memcpy(&v, cl->tcdm + off, 8);
    return v;
}

static inline int mem_write_f64(NatCluster *cl, int64_t addr, double v)
{
    int64_t off = addr - cl->tcdm_base;
    if (off < 0 || off > cl->tcdm_size - 8)
        return 0;
    memcpy(cl->tcdm + off, &v, 8);
    return 1;
}

/* stream FIFO ring helpers */
static inline double fifo_pop(NatMover *m)
{
    double v = m->fifo[m->fifo_head];
    m->fifo_head = (m->fifo_head + 1) & 63;
    m->fifo_len -= 1;
    return v;
}

static inline void fifo_push(NatMover *m, double v)
{
    m->fifo[(m->fifo_head + m->fifo_len) & 63] = v;
    m->fifo_len += 1;
}

static inline void fold_progress(NatMover *m)
{
    m->cum_data += m->idx_pos + m->seq_pos;
    m->cum_idx += m->word_i;
    m->idx_pos = 0;
    m->seq_pos = 0;
    m->word_i = 0;
}

/* Affine address of stream element `p` under the mover's live configuration
 * (mirrors DataMover._build_affine_seq's vectorized div/mod decomposition,
 * evaluated per element so mid-stream cfg.base/cfg.stride edits behave like
 * the Python rebuild). */
static inline int64_t affine_addr(const NatMover *m, int64_t p)
{
    int64_t addr = m->base;
    int64_t div = 1;
    int64_t dim;
    for (dim = 0; dim < m->dims; dim++) {
        int64_t bound = m->bounds[dim];
        if (bound <= 0)
            break;
        addr += floormod64(floordiv64(p, div), bound) * m->strides[dim];
        div *= bound;
    }
    return addr;
}

static inline int64_t total_affine_elements(const NatMover *m)
{
    int64_t total = 1;
    int64_t dim;
    for (dim = 0; dim < m->dims; dim++) {
        int64_t bound = m->bounds[dim];
        total *= bound > 0 ? bound : 0;
    }
    return total;
}

static inline int writes_drained(const NatCluster *cl, const NatCore *co)
{
    int64_t i;
    for (i = 0; i < cl->num_streams; i++)
        if (co->movers[i].cfg_write && co->movers[i].fifo_len)
            return 0;
    return 1;
}

/* ---- SSR data mover ticks ---------------------------------------------- */

static void tick_write(NatCluster *cl, NatCore *co, NatMover *m,
                       uint64_t *busy)
{
    int64_t pos, addr, bank;
    double value;
    if (!m->fifo_len || m->affine_remaining <= 0) {
        m->active = 0;
        return;
    }
    pos = m->seq_pos;
    addr = affine_addr(m, pos);
    bank = bank_of(cl, addr);
    if (*busy & (1ull << bank)) {
        cl->tcdm_total += 1;
        cl->tcdm_conflicts += 1;
        m->denied_data += 1;
        return;
    }
    *busy |= 1ull << bank;
    cl->tcdm_total += 1;
    cl->tcdm_granted += 1;
    value = fifo_pop(m);
    if (!mem_write_f64(cl, addr, value)) {
        nat_fail(cl, NAT_MEM_RANGE, co->hart_id, co->pc, addr);
        return;
    }
    m->seq_pos = pos + 1;
    m->affine_remaining -= 1;
    if (m->affine_remaining == 0) {
        m->affine_active = 0;
        m->active = 0;
    } else if (!m->fifo_len) {
        m->active = 0;
    }
}

static void fetch_index_word(NatCluster *cl, NatCore *co, NatMover *m,
                             uint64_t *busy)
{
    int64_t pos0 = m->idx_pos + m->idxq_len;
    int64_t byte0, word_addr, bank, p;
    if (pos0 >= m->idx_count) {
        /* The Python engine would fault indexing an empty word schedule. */
        nat_fail(cl, NAT_INTERNAL, co->hart_id, co->pc, 0);
        return;
    }
    byte0 = m->idx_base + pos0 * m->idx_size;
    word_addr = byte0 - floormod64(byte0, 8);
    bank = bank_of(cl, word_addr);
    if (*busy & (1ull << bank)) {
        cl->tcdm_total += 1;
        cl->tcdm_conflicts += 1;
        m->denied_idx += 1;
        return;
    }
    *busy |= 1ull << bank;
    cl->tcdm_total += 1;
    cl->tcdm_granted += 1;
    for (p = pos0; p < m->idx_count; p++) {
        int64_t byte = m->idx_base + p * m->idx_size;
        int64_t off, index, addr;
        if (byte - floormod64(byte, 8) != word_addr)
            break;
        off = byte - cl->tcdm_base;
        if (off < 0 || off + m->idx_size > cl->tcdm_size) {
            nat_fail(cl, NAT_MEM_RANGE, co->hart_id, co->pc, byte);
            return;
        }
        if (m->idxq_len >= 8) {
            /* The index queue ring holds at most one 8-byte word's worth of
             * entries; overflowing it would silently wrap the ring. */
            nat_fail(cl, NAT_BOUNDS, co->hart_id, co->pc, byte);
            return;
        }
        if (m->idx_size == 2) {
            int16_t raw;
            memcpy(&raw, cl->tcdm + off, 2);
            index = raw;
        } else {
            int32_t raw;
            memcpy(&raw, cl->tcdm + off, 4);
            index = raw;
        }
        addr = m->launch_base + index * 8;
        m->idxq_addr[(m->idxq_head + m->idxq_len) & 7] = addr;
        m->idxq_bank[(m->idxq_head + m->idxq_len) & 7] = bank_of(cl, addr);
        m->idxq_len += 1;
    }
    m->word_i += 1;
}

static void tick_read_indirect(NatCluster *cl, NatCore *co, NatMover *m,
                               uint64_t *busy)
{
    int64_t addr, bank, off;
    double value;
    int bad = 0;
    if (m->fifo_len >= cl->fifo_depth)
        return;
    if (m->remaining <= 0) {
        m->active = 0;
        return;
    }
    if (!m->idxq_len) {
        fetch_index_word(cl, co, m, busy);
        return;
    }
    addr = m->idxq_addr[m->idxq_head];
    bank = m->idxq_bank[m->idxq_head];
    if (*busy & (1ull << bank)) {
        cl->tcdm_total += 1;
        cl->tcdm_conflicts += 1;
        m->denied_data += 1;
        return;
    }
    *busy |= 1ull << bank;
    cl->tcdm_total += 1;
    cl->tcdm_granted += 1;
    m->idxq_head = (m->idxq_head + 1) & 7;
    m->idxq_len -= 1;
    off = addr - cl->tcdm_base;
    (void)off;
    value = mem_read_f64(cl, addr, &bad);
    if (bad) {
        nat_fail(cl, NAT_MEM_RANGE, co->hart_id, co->pc, addr);
        return;
    }
    fifo_push(m, value);
    m->idx_pos += 1;
    m->remaining -= 1;
    if (m->remaining == 0)
        m->active = 0;
}

static void tick_read_affine(NatCluster *cl, NatCore *co, NatMover *m,
                             uint64_t *busy)
{
    int64_t remaining, addr, bank;
    double value;
    int bad = 0;
    if (m->fifo_len >= cl->fifo_depth)
        return;
    remaining = m->affine_remaining;
    if (remaining <= 0) {
        m->active = 0;
        return;
    }
    addr = affine_addr(m, m->seq_pos);
    bank = bank_of(cl, addr);
    if (*busy & (1ull << bank)) {
        cl->tcdm_total += 1;
        cl->tcdm_conflicts += 1;
        m->denied_data += 1;
        return;
    }
    *busy |= 1ull << bank;
    cl->tcdm_total += 1;
    cl->tcdm_granted += 1;
    value = mem_read_f64(cl, addr, &bad);
    if (bad) {
        nat_fail(cl, NAT_MEM_RANGE, co->hart_id, co->pc, addr);
        return;
    }
    fifo_push(m, value);
    m->seq_pos += 1;
    m->affine_remaining = remaining - 1;
    if (remaining == 1)
        m->active = 0;
}

static inline void mover_tick(NatCluster *cl, NatCore *co, NatMover *m,
                              uint64_t *busy)
{
    if (m->cfg_write)
        tick_write(cl, co, m, busy);
    else if (m->cfg_indirect)
        tick_read_indirect(cl, co, m, busy);
    else
        tick_read_affine(cl, co, m, busy);
}

/* ---- FPU issue ---------------------------------------------------------- */

static inline double fp_apply2(int64_t kind, double a, double b)
{
    switch (kind) {
    case FP_FADD: return a + b;
    case FP_FSUB: return a - b;
    case FP_FMUL: return a * b;
    case FP_FDIV: return a / b;
    /* Python min()/max(): return the second operand only on strict
     * comparison, first otherwise (matches NaN and tie behaviour). */
    case FP_FMIN: return (b < a) ? b : a;
    case FP_FMAX: return (b > a) ? b : a;
    case FP_FSGNJ: return (b >= 0.0) ? fabs(a) : -fabs(a);
    case FP_FSGNJN: return (b < 0.0) ? fabs(a) : -fabs(a);
    default: /* FP_FSGNJX */
        return (b >= 0.0) ? a : -a;
    }
}

static inline double fp_apply3(int64_t kind, double a, double b, double c)
{
    switch (kind) {
    case FP_FMADD: return a * b + c;
    case FP_FMSUB: return a * b - c;
    case FP_FNMADD: return -(a * b) - c;
    default: /* FP_FNMSUB */
        return -(a * b) + c;
    }
}

/* One issue attempt for the FP instruction row `I`; returns 1 when issued,
 * 0 after charging exactly one stall counter (mirrors the compiled issue
 * closures in fpu.py). */
static int fp_issue(NatCluster *cl, NatCore *co, const int64_t *I,
                    int64_t cycle, int64_t addr, uint64_t *busy)
{
    int64_t kind = I[C_A0];
    int64_t latency = I[C_A1];
    int64_t flops = I[C_A2];
    int64_t is_fpc = I[C_A3];
    int64_t dest = I[C_RD];
    int64_t srcs[3];
    int ns = 0;
    int64_t num_streams = cl->num_streams;
    int enabled = (int)co->ssr_enabled;
    int64_t fault_pc = (I - co->prog) / NCOL;
    int i;

    if (kind <= FP_FNMSUB) {
        srcs[0] = I[C_RS1]; srcs[1] = I[C_RS2]; srcs[2] = I[C_RS3]; ns = 3;
    } else if (kind <= FP_FSGNJX) {
        srcs[0] = I[C_RS1]; srcs[1] = I[C_RS2]; ns = 2;
    } else if (kind == FP_FMV || kind == FP_FABS) {
        srcs[0] = I[C_RS1]; ns = 1;
    } else if (kind == FP_FSD) {
        srcs[0] = I[C_RS2]; ns = 1;
    }

    if (kind == FP_FLD) {
        NatMover *dm = dest < num_streams ? &co->movers[dest] : 0;
        int stream_dest = (dm && enabled && dm->cfg_write);
        int64_t bank, off;
        double value;
        if (stream_dest && dm->fifo_len >= cl->fifo_depth) {
            co->stall_ssr_write += 1;
            return 0;
        }
        bank = bank_of(cl, addr);
        if (*busy & (1ull << bank)) {
            cl->tcdm_total += 1;
            cl->tcdm_conflicts += 1;
            co->stall_mem += 1;
            return 0;
        }
        *busy |= 1ull << bank;
        cl->tcdm_total += 1;
        cl->tcdm_granted += 1;
        co->issued_mem += 1;
        off = addr - cl->tcdm_base;
        if (off < 0 || off > cl->tcdm_size - 8) {
            nat_fail(cl, NAT_MEM_RANGE, co->hart_id, fault_pc, addr);
            return 1;
        }
        memcpy(&value, cl->tcdm + off, 8);
        if (stream_dest) {
            fifo_push(dm, value);
            dm->active = 1;
            co->any_active = 1;
        } else {
            co->fregs[dest] = value;
            co->scoreboard[dest] = cycle + latency;
        }
        return 1;
    }

    if (kind == FP_FSD) {
        int64_t r2 = srcs[0];
        int streamable = r2 < num_streams;
        int64_t bank;
        double value;
        if (enabled && streamable) {
            if (!co->movers[r2].fifo_len) {
                co->stall_ssr_read += 1;
                return 0;
            }
        } else if (co->scoreboard[r2] > cycle) {
            co->stall_raw += 1;
            return 0;
        }
        bank = bank_of(cl, addr);
        if (*busy & (1ull << bank)) {
            cl->tcdm_total += 1;
            cl->tcdm_conflicts += 1;
            co->stall_mem += 1;
            return 0;
        }
        *busy |= 1ull << bank;
        cl->tcdm_total += 1;
        cl->tcdm_granted += 1;
        co->issued_mem += 1;
        value = (enabled && streamable) ? fifo_pop(&co->movers[r2])
                                        : co->fregs[r2];
        if (!mem_write_f64(cl, addr, value))
            nat_fail(cl, NAT_MEM_RANGE, co->hart_id, fault_pc, addr);
        return 1;
    }

    /* compute / move / convert kinds */
    if (enabled) {
        /* scoreboard sources first (registers >= 3, in operand order) ... */
        for (i = 0; i < ns; i++) {
            if (srcs[i] >= 3 && co->scoreboard[srcs[i]] > cycle) {
                co->stall_raw += 1;
                return 0;
            }
        }
        /* ... then stream FIFO levels (per distinct stream register). */
        for (i = 0; i < ns; i++) {
            int64_t reg = srcs[i];
            int j, count, seen = 0;
            if (reg >= num_streams)
                continue;
            for (j = 0; j < i; j++)
                if (srcs[j] == reg)
                    seen = 1;
            if (seen)
                continue;
            count = 0;
            for (j = 0; j < ns; j++)
                if (srcs[j] == reg)
                    count += 1;
            if (co->movers[reg].fifo_len < count) {
                co->stall_ssr_read += 1;
                return 0;
            }
        }
    } else {
        for (i = 0; i < ns; i++) {
            if (co->scoreboard[srcs[i]] > cycle) {
                co->stall_raw += 1;
                return 0;
            }
        }
    }

    {
        NatMover *dm = dest < num_streams ? &co->movers[dest] : 0;
        int stream_dest = (dm && enabled && dm->cfg_write);
        double a = 0.0, result;
        if (stream_dest && dm->fifo_len >= cl->fifo_depth) {
            co->stall_ssr_write += 1;
            return 0;
        }
        if (kind == FP_FCVT) {
            result = (double)addr;
        } else {
            a = (enabled && srcs[0] < num_streams)
                    ? fifo_pop(&co->movers[srcs[0]]) : co->fregs[srcs[0]];
            if (ns >= 2) {
                double b = (enabled && srcs[1] < num_streams)
                               ? fifo_pop(&co->movers[srcs[1]])
                               : co->fregs[srcs[1]];
                if (ns == 3) {
                    double c = (enabled && srcs[2] < num_streams)
                                   ? fifo_pop(&co->movers[srcs[2]])
                                   : co->fregs[srcs[2]];
                    result = fp_apply3(kind, a, b, c);
                } else {
                    result = fp_apply2(kind, a, b);
                }
            } else {
                result = (kind == FP_FABS) ? fabs(a) : a;
            }
        }
        if (is_fpc) {
            co->issued_compute += 1;
            co->flops += flops;
        } else {
            co->issued_move += 1;
        }
        if (stream_dest) {
            fifo_push(dm, result);
            dm->active = 1;
            co->any_active = 1;
        } else {
            co->fregs[dest] = result;
            co->scoreboard[dest] = cycle + latency;
        }
        return 1;
    }
}

/* ---- FPU sequencer step (the FPU slot of SnitchCluster.run) ------------- */

static void fpu_step(NatCluster *cl, NatCore *co, int64_t cycle,
                     uint64_t *busy)
{
    if (co->cur.kind < 0) {
        if (!co->q_len) {
            co->idle_empty += 1;
            return;
        }
        co->cur = co->q[co->q_head];
        co->q_head = (co->q_head + 1) & 63;
        co->q_len -= 1;
        co->blk_inst = 0;
        co->blk_rep = 0;
    }
    if (co->cur.kind == 1) {
        const int64_t *I = co->prog + (co->cur.a + co->blk_inst) * NCOL;
        if (fp_issue(cl, co, I, cycle, 0, busy)) {
            co->blk_inst += 1;
            if (co->blk_inst >= co->cur.b) {
                co->blk_inst = 0;
                co->blk_rep += 1;
                if (co->blk_rep >= co->cur.c)
                    co->cur.kind = -1;
            }
        }
    } else {
        const int64_t *I = co->prog + co->cur.a * NCOL;
        if (fp_issue(cl, co, I, cycle, co->cur.b, busy))
            co->cur.kind = -1;
    }
}

/* ---- integer pipeline step ---------------------------------------------- */

static void int_execute(NatCluster *cl, NatCore *co, int64_t pc,
                        int64_t cycle, uint64_t *busy)
{
    const int64_t *I = co->prog + pc * NCOL;
    int64_t op = I[C_OP];
    int64_t rd = I[C_RD], rs1 = I[C_RS1], rs2 = I[C_RS2];
    int64_t imm = I[C_IMM];
    int64_t pc1 = pc + 1;
    int64_t *regs = co->iregs;

    switch (op) {
    case OP_RETIRE:
        co->int_retired += 1;
        co->pc = pc1;
        return;
    case OP_ALU_RR: {
        int64_t a = regs[rs1], b = regs[rs2], value;
        switch (I[C_A0]) {
        case 0: value = a + b; break;
        case 1: value = a - b; break;
        case 2: value = a & b; break;
        case 3: value = a | b; break;
        case 4: value = a ^ b; break;
        case 5: value = a << (b & 31); break;
        case 6: value = (a & U32) >> (b & 31); break;
        case 7: value = a >> (b & 31); break;
        case 8: value = a < b; break;
        case 9: value = (a & U32) < (b & U32); break;
        case 10: value = a * b; break;
        default: value = (a * b) >> 32; break;
        }
        regs[rd] = wrap32(value);
        co->int_retired += 1;
        co->pc = pc1;
        return;
    }
    case OP_ALU_RI: {
        int64_t a = regs[rs1], value;
        switch (I[C_A0]) {
        case 0: value = a + imm; break;
        case 1: value = a & imm; break;
        case 2: value = a | imm; break;
        case 3: value = a ^ imm; break;
        case 4: value = a << (imm & 31); break;
        case 5: value = (a & U32) >> (imm & 31); break;
        case 6: value = a >> (imm & 31); break;
        case 7: value = a < imm; break;
        default: value = (a & U32) < (imm & U32); break;
        }
        regs[rd] = wrap32(value);
        co->int_retired += 1;
        co->pc = pc1;
        return;
    }
    case OP_LI:
        regs[rd] = imm;  /* pre-wrapped at decode */
        co->int_retired += 1;
        co->pc = pc1;
        return;
    case OP_AUIPC:
        regs[rd] = wrap32(imm + co->pc);
        co->int_retired += 1;
        co->pc = pc1;
        return;
    case OP_MV:
        regs[rd] = regs[rs1];
        co->int_retired += 1;
        co->pc = pc1;
        return;
    case OP_LOAD: case OP_STORE: {
        int64_t addr = (regs[rs1] + imm) & U32;
        int64_t bank = bank_of(cl, addr);
        int64_t off = addr - cl->tcdm_base;
        int64_t width, sub = I[C_A0];
        cl->tcdm_total += 1;
        if (*busy & (1ull << bank)) {
            cl->tcdm_conflicts += 1;
            co->lsu_conflict += 1;
            return;
        }
        *busy |= 1ull << bank;
        cl->tcdm_granted += 1;
        width = (op == OP_LOAD) ? (sub == 0 ? 4 : (sub <= 2 ? 2 : 1))
                                : (sub == 0 ? 4 : (sub == 1 ? 2 : 1));
        if (off < 0 || off + width > cl->tcdm_size) {
            nat_fail(cl, NAT_MEM_RANGE, co->hart_id, pc, addr);
            return;
        }
        if (op == OP_LOAD) {
            int64_t value;
            if (sub == 0) {
                int32_t raw;
                memcpy(&raw, cl->tcdm + off, 4);
                value = raw;
            } else if (sub == 1) {
                int16_t raw;
                memcpy(&raw, cl->tcdm + off, 2);
                value = raw;
            } else if (sub == 2) {
                uint16_t raw;
                memcpy(&raw, cl->tcdm + off, 2);
                value = raw;
            } else if (sub == 3) {
                uint8_t raw = cl->tcdm[off];
                value = raw >= 128 ? (int64_t)raw - 256 : raw;
            } else {
                value = cl->tcdm[off];
            }
            wreg(co, rd, value);
        } else {
            if (sub == 0) {
                uint32_t raw = (uint32_t)(regs[rs2] & U32);
                memcpy(cl->tcdm + off, &raw, 4);
            } else if (sub == 1) {
                uint16_t raw = (uint16_t)(regs[rs2] & 0xFFFF);
                memcpy(cl->tcdm + off, &raw, 2);
            } else {
                cl->tcdm[off] = (uint8_t)(regs[rs2] & 0xFF);
            }
        }
        co->int_retired += 1;
        co->pc = pc1;
        return;
    }
    case OP_BRANCH: {
        int64_t a = regs[rs1], b = regs[rs2];
        int taken;
        co->int_retired += 1;
        switch (I[C_A0]) {
        case 0: taken = a == b; break;
        case 1: taken = a != b; break;
        case 2: taken = a < b; break;
        case 3: taken = a >= b; break;
        case 4: taken = (a & U32) < (b & U32); break;
        default: taken = (a & U32) >= (b & U32); break;
        }
        if (taken) {
            co->pc = I[C_TGT];
            if (cl->branch_penalty) {
                co->branch += cl->branch_penalty;
                co->stall_until = cycle + 1 + cl->branch_penalty;
            }
        } else {
            co->pc = pc1;
        }
        return;
    }
    case OP_JUMP:
        co->int_retired += 1;
        if (I[C_A0] == 0) {
            co->pc = I[C_TGT];
        } else if (I[C_A0] == 1) {
            if (rd >= 0)
                wreg(co, rd, pc1);
            co->pc = I[C_TGT];
        } else {
            if (rd >= 0)
                wreg(co, rd, pc1);
            co->pc = (regs[rs1] + imm) & U32;
        }
        if (cl->branch_penalty) {
            co->branch += cl->branch_penalty;
            co->stall_until = cycle + 1 + cl->branch_penalty;
        }
        return;
    case OP_CSRR:
        if (I[C_A0] == 0)
            wreg(co, rd, co->hart_id);
        else if (I[C_A0] == 1)
            wreg(co, rd, cycle);
        else
            wreg(co, rd, co->int_retired
                         + co->issued_compute + co->issued_mem
                         + co->issued_move);
        co->int_retired += 1;
        co->pc = pc1;
        return;
    case OP_DIV: {
        int is_div = (int)(I[C_A0] & 1);
        int is_unsigned = (int)(I[C_A0] & 2);
        int64_t a = regs[rs1], b = regs[rs2], result;
        co->div += cl->div_latency;
        co->stall_until = cycle + 1 + cl->div_latency;
        if (b == 0) {
            result = is_div ? -1 : a;
        } else if (is_unsigned) {
            int64_t ua = a & U32, ub = b & U32;
            int64_t q = ua / ub;
            result = is_div ? q : ua - q * ub;
        } else {
            int64_t aa = a < 0 ? -a : a, ab = b < 0 ? -b : b;
            int64_t q = aa / ab;
            if ((a < 0) != (b < 0))
                q = -q;
            result = is_div ? q : a - q * b;
        }
        wreg(co, rd, result);
        co->int_retired += 1;
        co->pc = pc1;
        return;
    }
    case OP_FREP: {
        int64_t reps;
        if (co->q_len >= cl->offload_depth) {
            co->offload_full += 1;
            return;
        }
        reps = regs[rs1];
        if (reps <= 0) {
            co->pc = I[C_TGT];
            co->int_retired += 1;
            return;
        }
        {
            NatQItem *item = &co->q[(co->q_head + co->q_len) & 63];
            item->kind = 1;
            item->a = pc + 1;
            item->b = imm;
            item->c = reps;
            co->q_len += 1;
        }
        co->int_retired += 1;
        co->pc = I[C_TGT];
        return;
    }
    case OP_FP: {
        int64_t kind = I[C_A0], addr;
        NatQItem *item;
        if (co->q_len >= cl->offload_depth) {
            co->offload_full += 1;
            return;
        }
        if (kind == FP_FLD || kind == FP_FSD)
            addr = (regs[rs1] + imm) & U32;
        else if (kind == FP_FCVT)
            addr = regs[rs1];
        else
            addr = 0;
        item = &co->q[(co->q_head + co->q_len) & 63];
        item->kind = 0;
        item->a = pc;
        item->b = addr;
        item->c = 0;
        co->q_len += 1;
        co->pc = pc1;
        return;
    }
    case OP_SSR_ENABLE:
        co->ssr_enabled = 1;
        co->int_retired += 1;
        co->pc = pc1;
        return;
    case OP_SSR_DISABLE:
        co->ssr_enabled = 0;
        co->int_retired += 1;
        co->pc = pc1;
        return;
    case OP_SSR_BARRIER:
        if (co->cur.kind >= 0 || co->q_len || !writes_drained(cl, co)) {
            co->barrier += 1;
            return;
        }
        co->int_retired += 1;
        co->pc = pc1;
        return;
    default: {
        NatMover *m = &co->movers[imm];
        switch (op) {
        case OP_CFG_IDX:
            if (!m->indirect_capable) {
                nat_fail(cl, NAT_SSR_MISUSE, co->hart_id, pc, 0);
                return;
            }
            m->cfg_indirect = 1;
            m->cfg_write = 0;
            m->idx_base = regs[rs1];
            m->idx_count = regs[rs2];
            break;
        case OP_CFG_IDXSIZE:
            m->idx_size = I[C_IMM2];
            break;
        case OP_CFG_DIMS:
            m->dims = I[C_IMM2];
            break;
        case OP_CFG_BOUND:
            m->bounds[I[C_IMM2]] = regs[rs1];
            break;
        case OP_CFG_STRIDE:
            m->strides[I[C_IMM2]] = regs[rs1];
            break;
        case OP_CFG_BASE:
            m->base = regs[rs1] & U32;
            break;
        case OP_CFG_WRITE:
            m->cfg_write = I[C_IMM2] ? 1 : 0;
            break;
        case OP_LAUNCH:
            if (m->remaining > 0 || m->affine_remaining > 0 || m->fifo_len) {
                co->ssr_launch += 1;
                return;
            }
            if (!m->cfg_indirect) {
                nat_fail(cl, NAT_SSR_MISUSE, co->hart_id, pc, 0);
                return;
            }
            fold_progress(m);
            m->launch_base = regs[rs1] & U32;
            m->remaining = m->idx_count;
            m->idxq_head = 0;
            m->idxq_len = 0;
            m->active = m->remaining > 0;
            if (m->active)
                co->any_active = 1;
            break;
        case OP_START:
            if (m->cfg_indirect && !m->cfg_write) {
                nat_fail(cl, NAT_SSR_MISUSE, co->hart_id, pc, 0);
                return;
            }
            if (m->cfg_write
                    ? (m->affine_active
                       && (m->affine_remaining > 0 || m->fifo_len))
                    : ((m->remaining > 0 || m->affine_remaining > 0)
                       || m->fifo_len)) {
                co->ssr_launch += 1;
                return;
            }
            fold_progress(m);
            m->affine_active = 1;
            m->affine_remaining = total_affine_elements(m);
            m->active = m->affine_remaining > 0;
            if (m->active)
                co->any_active = 1;
            break;
        default:
            nat_fail(cl, NAT_INTERNAL, co->hart_id, pc, 0);
            return;
        }
        co->int_retired += 1;
        co->pc = pc1;
        return;
    }
    }
}

static void int_step(NatCluster *cl, NatCore *co, int64_t cycle,
                     uint64_t *busy, int64_t *num_live)
{
    int64_t pc = co->pc;
    if (pc >= co->plen) {
        if (co->cur.kind < 0 && !co->q_len && writes_drained(cl, co)) {
            co->finished = 1;
            co->finish_cycle = cycle;
            *num_live -= 1;
            /* fall through: movers still tick on the finish cycle */
        }
        return;
    }
    if (cycle < co->stall_until)
        return;
    if (!co->resident[pc]) {
        int64_t line = pc / cl->line_insts;
        if (co->line_present[line]) {
            co->resident[pc] = 1;
            cl->icache_hits += 1;
        } else {
            cl->icache_misses += 1;
            co->line_present[line] = 1;
            if (cl->miss_log_len < cl->miss_log_cap)
                cl->miss_log[cl->miss_log_len++] =
                    co->hart_id * (1ll << 48) + line;
            else
                nat_fail(cl, NAT_BOUNDS, co->hart_id, pc, 0);
            co->icache += cl->miss_penalty;
            co->stall_until = cycle + cl->miss_penalty;
            return;
        }
    } else {
        cl->icache_hits += 1;
    }
    int_execute(cl, co, pc, cycle, busy);
}

/* ---- cluster DMA engine (mirrors DmaEngine.tick) ------------------------ */

/* Resolve a [addr, addr+nbytes) row into one of the two memory regions;
 * returns NULL when the row is not fully contained in either (the
 * eligibility prescan guarantees this never happens at run time). */
static inline uint8_t *dma_resolve(NatCluster *cl, int64_t addr,
                                   int64_t nbytes)
{
    if (addr >= cl->tcdm_base && addr + nbytes <= cl->tcdm_base + cl->tcdm_size)
        return cl->tcdm + (addr - cl->tcdm_base);
    if (cl->main_mem && addr >= cl->main_base
            && addr + nbytes <= cl->main_base + cl->main_size)
        return cl->main_mem + (addr - cl->main_base);
    return 0;
}

static int dma_copy(NatCluster *cl, const NatDmaTransfer *t)
{
    int64_t plane, row;
    for (plane = 0; plane < t->plane_reps; plane++) {
        for (row = 0; row < t->outer_reps; row++) {
            int64_t src = t->src + plane * t->src_plane_stride
                          + row * t->src_stride;
            int64_t dst = t->dst + plane * t->dst_plane_stride
                          + row * t->dst_stride;
            uint8_t *sp = dma_resolve(cl, src, t->inner_bytes);
            uint8_t *dp = dma_resolve(cl, dst, t->inner_bytes);
            if (!sp || !dp) {
                nat_fail(cl, NAT_MEM_RANGE, -1, -1, sp ? dst : src);
                return 0;
            }
            /* The Python engine copies the source out before writing, so
             * overlapping rows behave like memmove. */
            memmove(dp, sp, (size_t)t->inner_bytes);
        }
    }
    return 1;
}

static inline int64_t dma_transfer_cycles(const NatCluster *cl,
                                          const NatDmaTransfer *t)
{
    int64_t row_beats = (t->inner_bytes + cl->dma_bus_bytes - 1)
                        / cl->dma_bus_bytes;
    int64_t per_row = row_beats + cl->dma_row_setup;
    return t->outer_reps * t->plane_reps * per_row + cl->dma_transfer_setup;
}

static void dma_tick(NatCluster *cl)
{
    if (cl->dma_remaining == 0) {
        const NatDmaTransfer *t;
        if (cl->dma_queue_pos >= cl->dma_queue_len)
            return;
        t = &cl->dma_queue[cl->dma_queue_pos++];
        if (!dma_copy(cl, t))
            return;
        cl->dma_remaining = dma_transfer_cycles(cl, t);
        cl->dma_bytes_moved += t->inner_bytes * t->outer_reps * t->plane_reps;
        cl->dma_completed += 1;
    }
    cl->dma_remaining -= 1;
    cl->dma_busy_cycles += 1;
}

/* ---- entry validation --------------------------------------------------- */

/* One decoded program row: register indices, opcode, and every statically
 * known jump/branch/body target must be in range before the run loop may
 * trust them as array indices.  Catches corrupt or stale decode tables. */
static int row_ok(const NatCluster *cl, const NatCore *co, int64_t pc)
{
    const int64_t *I = co->prog + pc * NCOL;
    int64_t op = I[C_OP], tgt = I[C_TGT], plen = co->plen;
    if (I[C_RD] < -1 || I[C_RD] > 31
            || I[C_RS1] < 0 || I[C_RS1] > 31
            || I[C_RS2] < 0 || I[C_RS2] > 31
            || I[C_RS3] < 0 || I[C_RS3] > 31)
        return 0;
    switch (op) {
    case OP_RETIRE: case OP_ALU_RR: case OP_ALU_RI: case OP_LI:
    case OP_AUIPC: case OP_MV: case OP_LOAD: case OP_STORE: case OP_CSRR:
    case OP_DIV: case OP_SSR_ENABLE: case OP_SSR_DISABLE:
    case OP_SSR_BARRIER:
        return 1;
    case OP_BRANCH:
        return tgt >= 0 && tgt <= plen;
    case OP_JUMP:
        if (I[C_A0] == 2)
            return 1;  /* jalr: target comes from a register, wrapped u32 */
        return (I[C_A0] == 0 || I[C_A0] == 1) && tgt >= 0 && tgt <= plen;
    case OP_FREP: {
        int64_t body = I[C_IMM], b;
        if (body < 0 || tgt != pc + 1 + body || tgt > plen)
            return 0;
        for (b = pc + 1; b < tgt; b++)
            if (co->prog[b * NCOL + C_OP] != OP_FP)
                return 0;
        return 1;
    }
    case OP_FP: {
        int64_t kind = I[C_A0];
        return (kind >= FP_FMADD && kind <= FP_FNMSUB)
               || (kind >= FP_FADD && kind <= FP_FSGNJX)
               || kind == FP_FMV || kind == FP_FABS || kind == FP_FCVT
               || kind == FP_FLD || kind == FP_FSD;
    }
    case OP_CFG_IDX: case OP_CFG_BASE: case OP_CFG_WRITE:
    case OP_LAUNCH: case OP_START:
        return I[C_IMM] >= 0 && I[C_IMM] < cl->num_streams;
    case OP_CFG_IDXSIZE:
        return I[C_IMM] >= 0 && I[C_IMM] < cl->num_streams
               && (I[C_IMM2] == 2 || I[C_IMM2] == 4);
    case OP_CFG_DIMS:
        return I[C_IMM] >= 0 && I[C_IMM] < cl->num_streams
               && I[C_IMM2] >= 1 && I[C_IMM2] <= 4;
    case OP_CFG_BOUND: case OP_CFG_STRIDE:
        return I[C_IMM] >= 0 && I[C_IMM] < cl->num_streams
               && I[C_IMM2] >= 0 && I[C_IMM2] < 4;
    default:
        return 0;
    }
}

/* Whole-cluster validation at run entry: parameters within the folds the
 * engine was built for, non-NULL shared buffers, every decoded row sane.
 * Cheap (one linear scan of the program tables) next to any real run. */
static int64_t nat_validate(NatCluster *cl)
{
    int64_t i, pc, dm;
    if (cl->num_cores < 1 || cl->num_cores > 64
            || !is_pow2(cl->num_banks) || cl->num_banks > 64
            || !is_pow2(cl->bank_width) || cl->tcdm_size < 0
            || !cl->tcdm || !cl->cores
            || cl->line_insts < 1
            || cl->num_streams < 1 || cl->num_streams > 4
            || cl->fifo_depth < 1 || cl->fifo_depth > 63
            || cl->offload_depth < 1 || cl->offload_depth > 63
            || cl->max_cycles < 0
            || cl->miss_log_cap < 0
            || (cl->miss_log_cap > 0 && !cl->miss_log)
            || (cl->dma_queue_len > 0
                && (!cl->dma_queue || cl->dma_bus_bytes < 1))) {
        nat_fail(cl, NAT_HANDSHAKE, -1, -1, 0);
        return cl->err;
    }
    for (i = 0; i < cl->num_cores; i++) {
        const NatCore *co = &cl->cores[i];
        if (!co->prog || !co->resident || !co->line_present
                || co->plen < 0 || co->pc < 0
                || co->q_len < 0 || co->q_len > 63
                || co->q_head < 0 || co->q_head > 63) {
            nat_fail(cl, NAT_DECODE, co->hart_id, co->pc, 0);
            return cl->err;
        }
        for (dm = 0; dm < cl->num_streams; dm++) {
            const NatMover *m = &co->movers[dm];
            if (m->fifo_len < 0 || m->fifo_len > 64
                    || m->fifo_head < 0 || m->fifo_head > 63
                    || m->idxq_len < 0 || m->idxq_len > 8
                    || m->idxq_head < 0 || m->idxq_head > 7
                    || m->dims < 0 || m->dims > 4) {
                nat_fail(cl, NAT_DECODE, co->hart_id, co->pc, 0);
                return cl->err;
            }
        }
        for (pc = 0; pc < co->plen; pc++) {
            if (!row_ok(cl, co, pc)) {
                nat_fail(cl, NAT_DECODE, co->hart_id, pc, 0);
                return cl->err;
            }
        }
    }
    return NAT_OK;
}

/* ---- main run loop (mirrors SnitchCluster.run) -------------------------- */

int64_t nat_run(NatCluster *cl)
{
    int64_t cycle, start_cycle, num_cores;
    int64_t num_live = 0;
    int64_t i, k;

    /* ABI handshake before touching anything else: if the two sides
     * disagree about the struct layout, no field past the leading pair can
     * be trusted, so report through the return value alone. */
    if (cl->magic != NAT_MAGIC || cl->abi != NAT_ABI_VERSION)
        return NAT_HANDSHAKE;
    cl->err = 0;
    cl->err_hart = -1;
    cl->err_pc = -1;
    cl->err_addr = 0;
    cl->cycle = cl->start_cycle;
    if (nat_validate(cl) != NAT_OK)
        return cl->err;

    /* Power-of-two geometry (validated above): bank_width == 1 << shift. */
    cl->bank_shift = 0;
    while ((1ll << cl->bank_shift) != cl->bank_width)
        cl->bank_shift += 1;
    cl->bank_mask = cl->num_banks - 1;

    cycle = cl->start_cycle;
    start_cycle = cycle;
    num_cores = cl->num_cores;

    for (i = 0; i < num_cores; i++)
        if (!cl->cores[i].finished)
            num_live += 1;

    for (;;) {
        uint64_t busy = 0;
        int64_t idx;
        if (cycle - start_cycle > cl->max_cycles) {
            cl->cycle = cycle;
            cl->err = NAT_MAX_CYCLES;
            return cl->err;
        }
        if (cl->watchdog > 0 && cycle - start_cycle > cl->watchdog) {
            /* Runaway run: the watchdog ceiling is tighter than max_cycles,
             * so this is a supervision fault, not the modelled deadlock.
             * Attribute the first core still executing (and its pc) — for a
             * genuine runaway that is where the spinning program lives. */
            int64_t live_hart = -1, live_pc = -1;
            for (i = 0; i < num_cores; i++) {
                if (!cl->cores[i].finished) {
                    live_hart = cl->cores[i].hart_id;
                    live_pc = cl->cores[i].pc;
                    break;
                }
            }
            cl->cycle = cycle;
            nat_fail(cl, NAT_WATCHDOG, live_hart, live_pc, 0);
            return cl->err;
        }
        if (num_live == 0
                && (!cl->wait_for_dma
                    || (cl->dma_remaining == 0
                        && cl->dma_queue_pos >= cl->dma_queue_len)))
            break;
        /* Core order rotates by the floor modulo, like the Python engine's
         * `cycle % num_cores`, so negative start cycles stay in range. */
        idx = floormod64(cycle, num_cores);
        for (k = 0; k < num_cores; k++) {
            NatCore *co = &cl->cores[idx];
            if (++idx == num_cores)
                idx = 0;
            if (co->finished)
                continue;
            fpu_step(cl, co, cycle, &busy);
            int_step(cl, co, cycle, &busy, &num_live);
            if (co->any_active) {
                int ticked = 0;
                for (i = 0; i < cl->num_streams; i++) {
                    NatMover *m = &co->movers[i];
                    if (m->active) {
                        mover_tick(cl, co, m, &busy);
                        ticked = 1;
                    }
                }
                if (!ticked)
                    co->any_active = 0;
            }
            if (cl->err) {
                cl->cycle = cycle;
                return cl->err;
            }
        }
        if (cl->dma_remaining || cl->dma_queue_pos < cl->dma_queue_len) {
            dma_tick(cl);
            if (cl->err) {
                cl->cycle = cycle;
                return cl->err;
            }
        }
        cycle += 1;
    }
    cl->cycle = cycle;
    return NAT_OK;
}
