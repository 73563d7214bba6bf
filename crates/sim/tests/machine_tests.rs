//! Full-machine integration tests on small configurations.

use lrscwait_asm::Assembler;
use lrscwait_core::SyncArch;
use lrscwait_sim::{ExecMode, ExitReason, Machine, SimConfig, SimError};

fn run_program(src: &str, cfg: SimConfig) -> Machine {
    let program = Assembler::new().assemble(src).expect("assembles");
    let mut m = Machine::new(cfg, &program).expect("loads");
    let summary = m.run().expect("runs");
    assert_eq!(summary.exit, ExitReason::AllHalted, "watchdog fired");
    m
}

#[test]
fn store_and_load_round_trip() {
    let src = r#"
        _start:
            rdhartid t0
            bnez t0, done          # only core 0 works
            li   t1, 0xABCD
            la   t2, slot
            sw   t1, (t2)
            lw   t3, (t2)
            la   t4, result
            sw   t3, (t4)
            fence
        done:
            ecall
        .data
        slot:   .word 0
        result: .word 0
    "#;
    let m = run_program(src, SimConfig::small(2, SyncArch::Lrsc));
    let program = Assembler::new().assemble(src).unwrap();
    assert_eq!(m.read_word(program.symbol("result")), 0xABCD);
}

#[test]
fn subword_accesses() {
    let src = r#"
        _start:
            rdhartid t0
            bnez t0, done
            la   t2, buf
            li   t1, 0x11
            sb   t1, 0(t2)
            li   t1, 0x22
            sb   t1, 1(t2)
            li   t1, 0x3344
            sh   t1, 2(t2)
            fence
            lbu  a0, 1(t2)         # 0x22
            lhu  a1, 2(t2)         # 0x3344
            la   t3, out
            sw   a0, 0(t3)
            sw   a1, 4(t3)
            fence
        done:
            ecall
        .data
        buf: .word 0
        out: .word 0, 0
    "#;
    let m = run_program(src, SimConfig::small(1, SyncArch::Lrsc));
    let p = Assembler::new().assemble(src).unwrap();
    assert_eq!(m.read_word(p.symbol("buf")), 0x3344_2211);
    assert_eq!(m.read_word(p.symbol("out")), 0x22);
    assert_eq!(m.read_word(p.symbol("out") + 4), 0x3344);
}

#[test]
fn amo_add_all_cores() {
    let src = r#"
        _start:
            la   a0, counter
            li   a1, 1
            li   t0, 10
        loop:
            amoadd.w a2, a1, (a0)
            addi t0, t0, -1
            bnez t0, loop
            ecall
        .data
        counter: .word 0
    "#;
    let m = run_program(src, SimConfig::small(8, SyncArch::Lrsc));
    let p = Assembler::new().assemble(src).unwrap();
    assert_eq!(m.read_word(p.symbol("counter")), 80);
}

#[test]
fn lrsc_retry_loop_conserves_updates() {
    let src = r#"
        _start:
            la   a0, counter
            li   t0, 20
        retry:
            lr.w t1, (a0)
            addi t1, t1, 1
            sc.w t2, t1, (a0)
            bnez t2, retry
            addi t0, t0, -1
            bnez t0, retry2
            j    out
        retry2:
            j    retry
        out:
            ecall
        .data
        counter: .word 0
    "#;
    let m = run_program(src, SimConfig::small(4, SyncArch::Lrsc));
    let p = Assembler::new().assemble(src).unwrap();
    assert_eq!(m.read_word(p.symbol("counter")), 80);
    let stats = m.stats();
    assert!(
        stats.adapters.sc_failure > 0,
        "contention must cause retries"
    );
}

#[test]
fn lrscwait_conserves_updates_without_retries() {
    let src = r#"
        _start:
            la   a0, counter
            li   t0, 20
        again:
            lrwait.w t1, (a0)
            addi t1, t1, 1
            scwait.w t2, t1, (a0)
            bnez t2, again      # only fail-fast paths retry
            addi t0, t0, -1
            bnez t0, again
            ecall
        .data
        counter: .word 0
    "#;
    for arch in [
        SyncArch::LrscWaitIdeal,
        SyncArch::LrscWait { slots: 2 },
        SyncArch::Colibri { queues: 4 },
        SyncArch::Colibri { queues: 1 },
    ] {
        let m = run_program(src, SimConfig::small(4, arch));
        let p = Assembler::new().assemble(src).unwrap();
        assert_eq!(m.read_word(p.symbol("counter")), 80, "{arch}");
        if matches!(arch, SyncArch::LrscWaitIdeal) {
            assert_eq!(m.stats().adapters.scwait_failure, 0, "ideal never fails");
        }
    }
}

#[test]
fn colibri_uses_qnode_messages() {
    let src = r#"
        _start:
            la   a0, counter
            li   t0, 8
        again:
            lrwait.w t1, (a0)
            addi t1, t1, 1
            scwait.w t2, t1, (a0)
            bnez t2, again
            addi t0, t0, -1
            bnez t0, again
            ecall
        .data
        counter: .word 0
    "#;
    let m = run_program(src, SimConfig::small(4, SyncArch::Colibri { queues: 1 }));
    let stats = m.stats();
    assert!(
        stats.adapters.successor_updates > 0,
        "contention must build the distributed queue"
    );
    assert!(stats.adapters.wakeups > 0);
}

#[test]
fn barrier_synchronizes_phases() {
    // Core 0 writes before the barrier; others read after it.
    let src = r#"
        .equ MMIO, 0xFFFF0000
        _start:
            li   s0, MMIO
            rdhartid t0
            bnez t0, reader
            la   t1, flag
            li   t2, 777
            sw   t2, (t1)
            fence
        reader:
            sw   zero, 0x0C(s0)    # barrier
            la   t1, flag
            lw   t3, (t1)
            la   t4, results
            rdhartid t0
            slli t5, t0, 2
            add  t4, t4, t5
            sw   t3, (t4)
            fence
            ecall
        .data
        flag: .word 0
        .bss
        results: .space 16
    "#;
    let m = run_program(src, SimConfig::small(4, SyncArch::Lrsc));
    let p = Assembler::new().assemble(src).unwrap();
    for c in 0..4 {
        assert_eq!(m.read_word(p.symbol("results") + 4 * c), 777, "core {c}");
    }
}

#[test]
fn mwait_producer_consumer() {
    let src = r#"
        .equ MMIO, 0xFFFF0000
        _start:
            rdhartid t0
            la   a0, mailbox
            bnez t0, consumer
        producer:
            li   t1, 5000
        spinwork:                 # give the consumer time to arm the monitor
            addi t1, t1, -1
            bnez t1, spinwork
            li   t2, 42
            sw   t2, (a0)
            fence
            ecall
        consumer:
            mwait.w t3, zero, (a0)   # sleep until mailbox != 0
            la   t4, got
            sw   t3, (t4)
            fence
            ecall
        .data
        mailbox: .word 0
        got:     .word 0
    "#;
    for arch in [SyncArch::LrscWaitIdeal, SyncArch::Colibri { queues: 2 }] {
        let m = run_program(src, SimConfig::small(2, arch));
        let p = Assembler::new().assemble(src).unwrap();
        assert_eq!(m.read_word(p.symbol("got")), 42, "{arch}");
    }
}

#[test]
fn mwait_expected_mismatch_returns_immediately() {
    let src = r#"
        _start:
            la   a0, mailbox
            li   t0, 1             # expected = 1, but memory holds 9
            mwait.w t1, t0, (a0)
            la   t2, got
            sw   t1, (t2)
            fence
            ecall
        .data
        mailbox: .word 9
        got:     .word 0
    "#;
    let m = run_program(src, SimConfig::small(1, SyncArch::Colibri { queues: 1 }));
    let p = Assembler::new().assemble(src).unwrap();
    assert_eq!(m.read_word(p.symbol("got")), 9);
}

#[test]
fn region_markers_and_op_counts() {
    let src = r#"
        .equ MMIO, 0xFFFF0000
        _start:
            li   s0, MMIO
            li   t0, 1
            sw   t0, 0x08(s0)     # region start
            li   t1, 25
        loop:
            sw   t0, 0x04(s0)     # one op
            addi t1, t1, -1
            bnez t1, loop
            sw   zero, 0x08(s0)   # region end
            ecall
    "#;
    let m = run_program(src, SimConfig::small(2, SyncArch::Lrsc));
    let stats = m.stats();
    assert_eq!(stats.total_ops(), 50);
    assert!(stats.region_window().is_some());
    assert!(stats.throughput().unwrap() > 0.0);
}

#[test]
fn mmio_args_and_ids() {
    let src = r#"
        .equ MMIO, 0xFFFF0000
        _start:
            li   s0, MMIO
            lw   t0, 0x18(s0)      # arg0
            lw   t1, 0x14(s0)      # num cores
            lw   t2, 0x10(s0)      # hartid
            add  t0, t0, t1
            add  t0, t0, t2
            la   t3, out
            sw   t0, (t3)
            fence
            ecall
        .data
        out: .word 0
    "#;
    let cfg = SimConfig::builder().cores(1).arg(0, 100).build().unwrap();
    let m = run_program(src, cfg);
    let p = Assembler::new().assemble(src).unwrap();
    assert_eq!(m.read_word(p.symbol("out")), 101); // arg0 (100) + num_cores (1) + hartid (0)
}

#[test]
fn debug_print_log() {
    let src = r#"
        .equ MMIO, 0xFFFF0000
        _start:
            li   s0, MMIO
            li   t0, 123
            sw   t0, 0x38(s0)
            ecall
    "#;
    let m = run_program(src, SimConfig::small(1, SyncArch::Lrsc));
    assert_eq!(m.debug_log().len(), 1);
    assert_eq!(m.debug_log()[0].2, 123);
}

#[test]
fn watchdog_fires_on_infinite_loop() {
    let src = "_start: j _start\n";
    let program = Assembler::new().assemble(src).unwrap();
    let cfg = SimConfig::builder()
        .cores(1)
        .max_cycles(1000)
        .build()
        .unwrap();
    let mut m = Machine::new(cfg, &program).unwrap();
    let summary = m.run().unwrap();
    assert_eq!(summary.exit, ExitReason::Watchdog);
    assert_eq!(summary.cycles, 1000);
}

#[test]
fn fault_on_wild_store() {
    let src = "_start: li t0, 0x00F00000\nsw zero, (t0)\necall\n";
    let program = Assembler::new().assemble(src).unwrap();
    let mut m = Machine::new(SimConfig::small(1, SyncArch::Lrsc), &program).unwrap();
    match m.run() {
        Err(SimError::Fault { what, .. }) => assert!(what.contains("store")),
        other => panic!("expected fault, got {other:?}"),
    }
}

#[test]
fn breakpoint_reports_line() {
    let src = "_start: nop\nebreak\n";
    let program = Assembler::new().assemble(src).unwrap();
    let mut m = Machine::new(SimConfig::small(1, SyncArch::Lrsc), &program).unwrap();
    match m.run() {
        Err(SimError::Breakpoint { line, .. }) => assert_eq!(line, Some(2)),
        other => panic!("expected breakpoint, got {other:?}"),
    }
}

#[test]
fn sleeping_cores_produce_no_traffic() {
    // One lrwait sleeper vs one lr/sc poller on a blocked location: the
    // waiter's sleep cycles dominate and it issues almost no requests.
    let src = r#"
        _start:
            rdhartid t0
            la   a0, lock
            bnez t0, waiter
        holder:                    # core 0 holds the queue head for a while
            lrwait.w t1, (a0)
            li   t2, 2000
        hold:
            addi t2, t2, -1
            bnez t2, hold
            addi t1, t1, 1
            scwait.w t3, t1, (a0)
            ecall
        waiter:
            lrwait.w t1, (a0)
            addi t1, t1, 1
            scwait.w t3, t1, (a0)
            ecall
        .data
        lock: .word 0
    "#;
    let m = run_program(src, SimConfig::small(2, SyncArch::Colibri { queues: 1 }));
    let stats = m.stats();
    // The waiter slept most of the run.
    assert!(
        stats.cores[1].sleep_cycles > 1500,
        "waiter should sleep, got {:?}",
        stats.cores[1]
    );
    let p = Assembler::new().assemble(src).unwrap();
    assert_eq!(m.read_word(p.symbol("lock")), 2);
}

#[test]
fn full_mempool_geometry_boots() {
    // All 256 cores increment one counter with amoadd on the real geometry.
    let src = r#"
        _start:
            la   a0, counter
            li   a1, 1
            amoadd.w a2, a1, (a0)
            ecall
        .data
        counter: .word 0
    "#;
    let m = run_program(src, SimConfig::mempool(SyncArch::Lrsc));
    let p = Assembler::new().assemble(src).unwrap();
    assert_eq!(m.read_word(p.symbol("counter")), 256);
}

#[test]
fn machine_surfaces_lowest_core_fault() {
    // Every core stores through a wild pointer; the reported error must
    // name core 0, the first core the walk reaches, in both exec modes.
    let src = r#"
        _start:
            li   t0, 0x00F00000
            sw   t0, (t0)
            ecall
    "#;
    let program = Assembler::new().assemble(src).unwrap();
    for mode in [ExecMode::Fast, ExecMode::Reference] {
        let cfg = SimConfig::builder()
            .cores(8)
            .exec_mode(mode)
            .build()
            .unwrap();
        let mut m = Machine::new(cfg, &program).unwrap();
        match m.run() {
            Err(SimError::Fault { core, .. }) => {
                assert_eq!(core, 0, "{mode:?}: lowest-core fault wins");
            }
            other => panic!("expected fault, got {other:?}"),
        }
    }
}
