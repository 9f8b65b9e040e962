#include "env/workloads.hpp"

namespace goofi::env {

namespace {

const char* const kBubbleSort = R"(
; Bubble sort of N words ascending, then checksum into `result`.
.equ N, 16
_start:
    li   r1, data
    li   r2, N
outer:
    addi r3, r0, 0          ; i = 0
    addi r9, r0, 0          ; swapped = 0
    addi r4, r2, -1         ; limit = N-1
inner:
    bge  r3, r4, outer_check
    slli r5, r3, 2
    add  r5, r5, r1
    ldw  r6, [r5]
    ldw  r7, [r5+4]
    bge  r7, r6, noswap
    stw  r7, [r5]
    stw  r6, [r5+4]
    addi r9, r0, 1
noswap:
    addi r3, r3, 1
    jmp  inner
outer_check:
    bne  r9, r0, outer
    addi r3, r0, 0          ; checksum pass
    addi r8, r0, 0
sumloop:
    bge  r3, r2, done
    slli r5, r3, 2
    add  r5, r5, r1
    ldw  r6, [r5]
    add  r8, r8, r6
    addi r3, r3, 1
    jmp  sumloop
done:
    li   r5, result
    stw  r8, [r5]
    halt
_etext:
data:
    .word 170, 45, 75, 90, 802, 24, 2, 66, 15, 123, 4, 58, 99, 7, 300, 1
result:
    .word 0
)";

const char* const kMatMul = R"(
; C = A * B for 3x3 integer matrices, then checksum of C into `result`.
.equ DIM, 3
_start:
    li   r1, mat_a
    li   r2, mat_b
    li   r3, mat_c
    addi r4, r0, 0          ; i
iloop:
    addi r5, r0, 0          ; j
jloop:
    addi r6, r0, 0          ; k
    addi r7, r0, 0          ; acc
kloop:
    ; a[i][k]
    li   r8, DIM
    mul  r9, r4, r8
    add  r9, r9, r6
    slli r9, r9, 2
    add  r9, r9, r1
    ldw  r10, [r9]
    ; b[k][j]
    mul  r9, r6, r8
    add  r9, r9, r5
    slli r9, r9, 2
    add  r9, r9, r2
    ldw  r11, [r9]
    mul  r10, r10, r11
    add  r7, r7, r10
    addi r6, r6, 1
    li   r8, DIM
    blt  r6, r8, kloop
    ; c[i][j] = acc
    mul  r9, r4, r8
    add  r9, r9, r5
    slli r9, r9, 2
    add  r9, r9, r3
    stw  r7, [r9]
    addi r5, r5, 1
    blt  r5, r8, jloop
    addi r4, r4, 1
    blt  r4, r8, iloop
    ; checksum of C
    addi r4, r0, 0
    addi r7, r0, 0
csum:
    slli r9, r4, 2
    add  r9, r9, r3
    ldw  r10, [r9]
    add  r7, r7, r10
    addi r4, r4, 1
    addi r8, r0, 9
    blt  r4, r8, csum
    li   r9, result
    stw  r7, [r9]
    halt
_etext:
mat_a:
    .word 1, 2, 3, 4, 5, 6, 7, 8, 9
mat_b:
    .word 9, 8, 7, 6, 5, 4, 3, 2, 1
mat_c:
    .word 0, 0, 0, 0, 0, 0, 0, 0, 0
result:
    .word 0
)";

const char* const kFibonacci = R"(
; result = fib(24) computed iteratively (fits comfortably in 32 bits).
.equ STEPS, 24
_start:
    addi r1, r0, 0          ; fib(0)
    addi r2, r0, 1          ; fib(1)
    addi r3, r0, 0          ; counter
    li   r4, STEPS
floop:
    bge  r3, r4, fdone
    add  r5, r1, r2
    mov  r1, r2
    mov  r2, r5
    addi r3, r3, 1
    jmp  floop
fdone:
    li   r5, result
    stw  r1, [r5]
    halt
_etext:
result:
    .word 0
)";

const char* const kChecksum = R"(
; Rotate-xor checksum over a 32-word block into `result`.
.equ N, 32
_start:
    li   r1, block
    li   r2, N
    addi r3, r0, 0          ; index
    addi r4, r0, 0          ; acc
    addi r7, r0, 1
    addi r8, r0, 31
csloop:
    bge  r3, r2, csdone
    slli r5, r3, 2
    add  r5, r5, r1
    ldw  r6, [r5]
    ; acc = rotl(acc, 1) ^ word
    sll  r9, r4, r7
    srl  r10, r4, r8
    or   r4, r9, r10
    xor  r4, r4, r6
    addi r3, r3, 1
    jmp  csloop
csdone:
    li   r5, result
    stw  r4, [r5]
    halt
_etext:
block:
    .word 0x12345678, 0x9abcdef0, 0x0fedcba9, 0x87654321
    .word 0x11111111, 0x22222222, 0x33333333, 0x44444444
    .word 0xdeadbeef, 0xcafebabe, 0x8badf00d, 0xfeedface
    .word 0x55aa55aa, 0xaa55aa55, 0x0000ffff, 0xffff0000
    .word 0x13579bdf, 0x2468ace0, 0xfdb97531, 0x0eca8642
    .word 0x01010101, 0x10101010, 0x0f0f0f0f, 0xf0f0f0f0
    .word 0x7fffffff, 0x80000000, 0x00000001, 0xfffffffe
    .word 0x31415926, 0x27182818, 0x16180339, 0x14142135
result:
    .word 0
)";

const char* const kStrSearch = R"(
; Counts occurrences of a 4-word needle in a 24-word haystack (naive scan);
; result = count * 256 + index of first match (or 0xFF if none).
.equ HLEN, 24
.equ NLEN, 4
_start:
    li   r1, haystack
    li   r2, needle
    addi r3, r0, 0          ; i
    addi r8, r0, 0          ; count
    addi r9, r0, 0xFF       ; first index
    li   r4, HLEN-NLEN
outer_s:
    bge  r3, r4, done_s
    addi r5, r0, 0          ; j
match_s:
    slli r6, r3, 2
    slli r7, r5, 2
    add  r6, r6, r7
    add  r6, r6, r1
    ldw  r10, [r6]          ; haystack[i+j]
    slli r7, r5, 2
    add  r7, r7, r2
    ldw  r11, [r7]          ; needle[j]
    bne  r10, r11, nomatch_s
    addi r5, r5, 1
    addi r12, r0, NLEN
    blt  r5, r12, match_s
    ; full match
    addi r8, r8, 1
    addi r12, r0, 0xFF
    bne  r9, r12, nomatch_s
    mov  r9, r3
nomatch_s:
    addi r3, r3, 1
    jmp  outer_s
done_s:
    slli r8, r8, 8
    or   r8, r8, r9
    li   r5, result
    stw  r8, [r5]
    halt
_etext:
haystack:
    .word 3, 1, 4, 1, 5, 9, 2, 6, 7, 2, 1, 8
    .word 7, 2, 1, 8, 2, 8, 4, 5, 7, 2, 1, 8
needle:
    .word 7, 2, 1, 8
result:
    .word 0
)";

const char* const kQueue = R"(
; Exercises the stack: pushes squares of 1..12 through a recursive-ish call
; chain, pops them back and folds into a checksum. Faults in sp/lr or stack
; memory surface here.
.equ N, 12
_start:
    addi r1, r0, 1          ; i
    li   r2, N
push_loop:
    bge  r1, r2, pop_phase
    mul  r3, r1, r1
    call square_adjust
    push r3
    addi r1, r1, 1
    jmp  push_loop
square_adjust:
    ; r3 += 3 (via a call to exercise lr)
    addi r3, r3, 3
    ret
pop_phase:
    addi r4, r0, 0          ; acc
    addi r1, r0, 1
pop_loop:
    bge  r1, r2, done_q
    pop  r5
    ; acc = rotl(acc, 3) ^ value  (overflow-free mixing)
    addi r6, r0, 3
    sll  r7, r4, r6
    addi r6, r0, 29
    srl  r10, r4, r6
    or   r4, r7, r10
    xor  r4, r4, r5
    addi r1, r1, 1
    jmp  pop_loop
done_q:
    li   r5, result
    stw  r4, [r5]
    halt
_etext:
result:
    .word 0
)";

// Control-application I/O convention: the host writes sensor words at
// `sensors`, reads the actuator word at `actuator`, once per execution of
// `loop_end`. TRAP 0 kicks the hardware watchdog every iteration.
const char* const kPendulumPd = R"(
; PD controller for the linearized inverted pendulum.
; u = -(Kp*theta + Kd*omega), all values Q8.8.
.equ IOBASE, 0xF000
.equ KP, 1024               ; 4.0
.equ KD, 512                ; 2.0
_start:
    li   r10, IOBASE
    addi r12, r0, 8         ; Q8.8 post-multiply shift
loop:
    ldw  r1, [r10]          ; theta
    ldw  r2, [r10+4]        ; omega
    li   r3, KP
    mul  r4, r1, r3
    li   r3, KD
    mul  r5, r2, r3
    add  r4, r4, r5
    sra  r4, r4, r12
    sub  r4, r0, r4
    stw  r4, [r10+8]        ; u
    trap 0
loop_end:
    jmp  loop
_etext:
)";

const char* const kPendulumPdAssert = R"(
; PD pendulum controller with executable assertions + best-effort recovery
; (companion paper, DSN 2001 ref [12]). Recovery takes two forms:
;   - state re-initialization: the I/O base and shift registers are reloaded
;     every iteration, so corruption of controller configuration is flushed
;     within one control period;
;   - output assertion: the actuator command is range-checked against a
;     tight envelope derived from fault-free operation and clamped.
.equ IOBASE, 0xF000
.equ KP, 1024
.equ KD, 512
.equ UMAX, 2048             ; 8.0 in Q8.8 — tight fault-free envelope
_start:
loop:
    li   r10, IOBASE        ; best-effort recovery: re-derive configuration
    addi r12, r0, 8
    ldw  r1, [r10]
    ldw  r2, [r10+4]
    li   r3, KP
    mul  r4, r1, r3
    li   r3, KD
    mul  r5, r2, r3
    add  r4, r4, r5
    sra  r4, r4, r12
    sub  r4, r0, r4
    ; assertion: u <= UMAX, recover by clamping
    li   r6, UMAX
    blt  r4, r6, chk_lo
    mov  r4, r6
chk_lo:
    ; assertion: u >= -UMAX
    sub  r7, r0, r6
    bge  r4, r7, assert_ok
    mov  r4, r7
assert_ok:
    stw  r4, [r10+8]
    trap 0
loop_end:
    jmp  loop
_etext:
)";

const char* const kPendulumPdTrap = R"(
; PD pendulum controller with fail-stop executable assertions: a violated
; range check raises TRAP 7 (software_assertion EDM) instead of recovering.
.equ IOBASE, 0xF000
.equ KP, 1024
.equ KD, 512
.equ UMAX, 16384
_start:
    li   r10, IOBASE
    addi r12, r0, 8
loop:
    ldw  r1, [r10]
    ldw  r2, [r10+4]
    li   r3, KP
    mul  r4, r1, r3
    li   r3, KD
    mul  r5, r2, r3
    add  r4, r4, r5
    sra  r4, r4, r12
    sub  r4, r0, r4
    li   r6, UMAX
    blt  r4, r6, chk_lo
    trap 7
chk_lo:
    sub  r7, r0, r6
    bge  r4, r7, assert_ok
    trap 7
assert_ok:
    stw  r4, [r10+8]
    trap 0
loop_end:
    jmp  loop
_etext:
)";

const char* const kCruisePi = R"(
; PI controller for the cruise-control plant. Sensor word is the speed
; error (setpoint - v); actuator is the drive command, clamped to [0, 100].
.equ IOBASE, 0xF000
.equ KP, 512                ; 2.0
.equ KI, 16                 ; 0.0625
.equ UMAX, 25600            ; 100.0
_start:
    li   r10, IOBASE
    addi r12, r0, 8
    addi r2, r0, 0          ; integral
loop:
    ldw  r1, [r10]          ; error
    add  r2, r2, r1
    li   r3, KP
    mul  r4, r1, r3
    li   r3, KI
    mul  r5, r2, r3
    add  r4, r4, r5
    sra  r4, r4, r12
    bge  r4, r0, upos
    addi r4, r0, 0
upos:
    li   r6, UMAX
    blt  r4, r6, ustore
    mov  r4, r6
ustore:
    stw  r4, [r10+4]
    trap 0
loop_end:
    jmp  loop
_etext:
)";

const char* const kSparseTable = R"(
; Sums the first N entries of an over-provisioned 64-word table, PASSES
; times over, into `result`. The table tail (words N..63) is never read and
; registers r9..r15 are never touched, so the static analyzer
; (core/static_analysis) can prove both — this is the demonstration workload
; for static fault-space pruning, and the pass loop makes each experiment
; expensive enough (~5.5k instructions) that pruning pays in wall-clock, not
; just in counters. Both loop guards are *unsigned* branches on purpose:
; signed-branch interval refinement bails once widening pushes a counter
; past 2^31, but bgeu/bltu refine any interval, keeping the table loads
; bounded. The first `addi r8` is a deliberate dead write exercising the
; write-never-read lint.
.equ N, 12
.equ PASSES, 64
_start:
    li   r1, table
    li   r2, N
    addi r4, r0, 0          ; acc
    addi r7, r0, 0          ; pass counter
    addi r8, r0, 77         ; dead write: overwritten below, never read
    li   r8, PASSES
outer:
    addi r3, r0, 0          ; index
tloop:
    bgeu r3, r2, tnext
    slli r5, r3, 2
    add  r5, r5, r1
    ldw  r6, [r5]
    add  r4, r4, r6
    addi r3, r3, 1
    jmp  tloop
tnext:
    addi r7, r7, 1
    bltu r7, r8, outer
    li   r5, result
    stw  r4, [r5]
    halt
_etext:
table:
    .word 12, 7, 3, 900, 41, 5, 27, 63, 8, 19, 250, 11
    .word 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
    .word 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
    .word 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
    .word 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
result:
    .word 0
)";

WorkloadSpec Batch(const char* name, const char* description, const char* source,
                   uint32_t result_words) {
  WorkloadSpec spec;
  spec.name = name;
  spec.description = description;
  spec.source = source;
  spec.result_symbol = "result";
  spec.result_words = result_words;
  return spec;
}

WorkloadSpec Control(const char* name, const char* description,
                     const char* source, const char* environment,
                     uint32_t input_words, uint32_t output_words) {
  WorkloadSpec spec;
  spec.name = name;
  spec.description = description;
  spec.source = source;
  spec.infinite_loop = true;
  spec.iteration_symbol = "loop_end";
  spec.input_symbol = "IOBASE";
  spec.input_words = input_words;
  spec.output_words = output_words;
  spec.environment = environment;
  return spec;
}

std::vector<WorkloadSpec> BuildAll() {
  std::vector<WorkloadSpec> all;
  all.push_back(Batch("bubblesort", "sort 16 words and checksum", kBubbleSort, 1));
  all.push_back(Batch("matmul", "3x3 integer matrix product", kMatMul, 1));
  all.push_back(Batch("fibonacci", "iterative fib(24)", kFibonacci, 1));
  all.push_back(Batch("checksum", "rotate-xor checksum of 32 words", kChecksum, 1));
  all.push_back(Batch("strsearch", "naive 4-word needle search", kStrSearch, 1));
  all.push_back(Batch("queue", "stack push/pop with call chain", kQueue, 1));
  all.push_back(Batch("sparse_table",
                      "sum 12 of 64 table words (static-prune demo)",
                      kSparseTable, 1));
  all.push_back(Control("pendulum_pd", "PD control of inverted pendulum",
                        kPendulumPd, "inverted_pendulum", 2, 1));
  all.push_back(Control("pendulum_pd_assert",
                        "PD pendulum with clamping assertions (recovery)",
                        kPendulumPdAssert, "inverted_pendulum", 2, 1));
  all.push_back(Control("pendulum_pd_trap",
                        "PD pendulum with fail-stop assertions",
                        kPendulumPdTrap, "inverted_pendulum", 2, 1));
  all.push_back(Control("cruise_pi", "PI cruise control", kCruisePi,
                        "cruise_control", 1, 1));
  return all;
}

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> all = BuildAll();
  return all;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  names.reserve(AllWorkloads().size());
  for (const WorkloadSpec& spec : AllWorkloads()) names.push_back(spec.name);
  return names;
}

util::Result<WorkloadSpec> GetWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return spec;
  }
  return util::NotFound("no workload named " + name);
}

}  // namespace goofi::env
