//! Proof that steady-state simulation performs zero heap allocations per
//! cycle: a counting global allocator wraps the system allocator, the
//! machine is warmed up until every scratch buffer and queue has reached
//! its high-water capacity, and a long measured window must then allocate
//! nothing at all — in `step_cycle`, `Network::advance`, the adapters and
//! the outbox bookkeeping alike.
//!
//! This binary holds a single test so no concurrent test thread can
//! pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lrscwait_asm::Assembler;
use lrscwait_core::SyncArch;
use lrscwait_sim::{Machine, SimConfig};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_cycles_do_not_allocate() {
    single_shard_steady_state();
    sharded_steady_state();
    busy_loop_steady_state();
}

fn single_shard_steady_state() {
    // High-contention mix: AMO traffic, lrwait/scwait sleep-wake churn and
    // posted stores, running forever (the harness steps manually).
    let src = r#"
        _start:
            la   a0, counter
            la   a1, wait_slot
            la   a2, scratch
            li   a3, 1
        loop:
            amoadd.w t0, a3, (a0)
            sw   t0, (a2)
            lrwait.w t1, (a1)
            addi t1, t1, 1
            scwait.w t2, t1, (a1)
            j    loop
        .data
        counter:   .word 0
        wait_slot: .word 0
        scratch:   .word 0
    "#;
    let program = Assembler::new().assemble(src).expect("assembles");
    let cfg = SimConfig::builder()
        .cores(8)
        .arch(SyncArch::Colibri { queues: 2 })
        .max_cycles(u64::MAX)
        .build()
        .expect("valid config");
    let mut machine = Machine::new(cfg, &program).expect("loads");

    // Warm up: let every queue, scratch vector and stat buffer reach its
    // steady-state capacity.
    for _ in 0..20_000 {
        machine.step_cycle().expect("warmup cycle");
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..10_000 {
        machine.step_cycle().expect("measured cycle");
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state cycles must not touch the heap"
    );

    // The machine is genuinely still doing work, not quiesced.
    let stats = machine.stats();
    assert!(stats.adapters.amos > 1000, "workload kept running");
    assert!(stats.total_sleep_cycles() > 0, "waiters slept");
}

/// The same proof with a worker pool (`shards > 1`): dispatching the two
/// parallel phases, the spin-then-park wake protocol, and the per-shard
/// scratch merging must all stay off the heap once warm — the persistent
/// pool spawns its threads at machine construction, never per cycle.
fn sharded_steady_state() {
    let src = r#"
        _start:
            la   a0, counter
            la   a1, wait_slot
            la   a2, scratch
            li   a3, 1
        loop:
            amoadd.w t0, a3, (a0)
            sw   t0, (a2)
            lrwait.w t1, (a1)
            addi t1, t1, 1
            scwait.w t2, t1, (a1)
            j    loop
        .data
        counter:   .word 0
        wait_slot: .word 0
        scratch:   .word 0
    "#;
    let program = Assembler::new().assemble(src).expect("assembles");
    let cfg = SimConfig::builder()
        .cores(8)
        .arch(SyncArch::Colibri { queues: 2 })
        .shards(2)
        .max_cycles(u64::MAX)
        .build()
        .expect("valid config");
    let mut machine = Machine::new(cfg, &program).expect("loads");

    // Warm up: scratch vectors, queues, and the workers' first-dispatch
    // lazy state (TLS, stack) all reach steady state.
    for _ in 0..8_000 {
        machine.step_cycle().expect("warmup cycle");
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..4_000 {
        machine.step_cycle().expect("measured cycle");
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "sharded steady-state cycles must not touch the heap"
    );

    let stats = machine.stats();
    assert!(stats.adapters.amos > 400, "sharded workload kept running");
}

/// The superblock fast path on a compute-heavy loop must be just as
/// allocation-free: the micro-op image is built once at machine
/// construction, and `run_block` threads through it with no heap traffic.
fn busy_loop_steady_state() {
    let src = r#"
        _start:
            la   a0, counter
            la   a2, scratch
            li   a3, 1
        loop:
            li   t1, 32
        busy:
            addi t1, t1, -1
            bnez t1, busy
            amoadd.w t0, a3, (a0)
            sw   t0, (a2)
            j    loop
        .data
        counter: .word 0
        scratch: .word 0
    "#;
    let program = Assembler::new().assemble(src).expect("assembles");
    let cfg = SimConfig::builder()
        .cores(8)
        .arch(SyncArch::Colibri { queues: 2 })
        .max_cycles(u64::MAX)
        .build()
        .expect("valid config");
    let mut machine = Machine::new(cfg, &program).expect("loads");

    for _ in 0..20_000 {
        machine.step_cycle().expect("warmup cycle");
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..10_000 {
        machine.step_cycle().expect("measured cycle");
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "busy-loop steady-state cycles must not touch the heap"
    );

    let stats = machine.stats();
    assert!(
        stats.adapters.amos > 1000,
        "busy-loop workload kept running"
    );
}
