#include "hwassist/haloop.hh"

#include "common/logging.hh"
#include "uops/csr.hh"

namespace cdvm::hwassist
{

using uops::UCond;
using uops::UOp;
using uops::Uop;

namespace
{

constexpr u8 F_SRC = 0;
constexpr u8 F_DST = 1;

Uop
mk(UOp op)
{
    Uop u;
    u.op = op;
    return u;
}

} // namespace

uops::UopVec
HaLoop::program()
{
    uops::UopVec v;

    Uop ldf = mk(UOp::LdF); // LDF F0, [Rx86pc]
    ldf.dst = F_SRC;
    ldf.src1 = uops::R_X86PC;
    ldf.hasImm = true;
    ldf.imm = 0;
    v.push_back(ldf);

    Uop x = mk(UOp::XltX86); // XLTX86 F1, F0
    x.dst = F_DST;
    x.src1 = F_SRC;
    v.push_back(x);

    Uop jcpx = mk(UOp::Br); // JCPX complex_handler
    jcpx.cond = static_cast<u8>(UCond::CsrCmplx);
    jcpx.target = HALOOP_EXIT_COMPLEX;
    v.push_back(jcpx);

    Uop jcti = mk(UOp::Br); // JCTI branch_handler
    jcti.cond = static_cast<u8>(UCond::CsrCti);
    jcti.target = HALOOP_EXIT_CTI;
    v.push_back(jcti);

    Uop stf = mk(UOp::StF); // STF F1, [Rcode$]
    stf.dst = F_DST;
    stf.src1 = uops::R_CODECACHE;
    stf.hasImm = true;
    stf.imm = 0;
    v.push_back(stf);

    Uop mv = mk(UOp::MovCsr); // MOV Rt0, CSR
    mv.dst = uops::R_V0;
    v.push_back(mv);

    Uop and1 = mk(UOp::And); // AND Rt1, Rt0, 0x0f (fused head)
    and1.dst = uops::R_V1;
    and1.src1 = uops::R_V0;
    and1.hasImm = true;
    and1.imm = 0x0f;
    and1.fusedHead = true;
    v.push_back(and1);

    Uop add1 = mk(UOp::Add); // :: ADD Rx86pc, Rx86pc, Rt1
    add1.dst = uops::R_X86PC;
    add1.src1 = uops::R_X86PC;
    add1.src2 = uops::R_V1;
    v.push_back(add1);

    Uop and2 = mk(UOp::And); // AND Rt2, Rt0, 0xf0 (fused head)
    and2.dst = uops::R_V2;
    and2.src1 = uops::R_V0;
    and2.hasImm = true;
    and2.imm = 0xf0;
    and2.fusedHead = true;
    v.push_back(and2);

    Uop shr = mk(UOp::Shr); // :: SHR Rt2, Rt2, 3
    shr.dst = uops::R_V2;
    shr.src1 = uops::R_V2;
    shr.hasImm = true;
    shr.imm = 3;
    v.push_back(shr);

    Uop add2 = mk(UOp::Add); // ADD Rcode$, Rcode$, Rt2
    add2.dst = uops::R_CODECACHE;
    add2.src1 = uops::R_CODECACHE;
    add2.src2 = uops::R_V2;
    v.push_back(add2);

    Uop jmp = mk(UOp::Jmp); // JMP HAloop
    jmp.target = HALOOP_TOP;
    v.push_back(jmp);

    return v;
}

Cycles
HaLoop::uopLatency(const Uop &u) const
{
    switch (u.op) {
      case UOp::XltX86:
        return xlt.latency(); // the paper assumes 4 cycles
      case UOp::LdF:
        return 3; // L1D-hit latency (streaming buffer in steady state)
      default:
        return 1;
    }
}

HaLoop::Result
HaLoop::run(Addr x86_pc, Addr code_addr, unsigned max_insns)
{
    Result res;
    uops::UState st;
    st.regs[uops::R_X86PC] = static_cast<u32>(x86_pc);
    st.regs[uops::R_CODECACHE] = static_cast<u32>(code_addr);

    uops::UopExecutor exe(st, mem);
    exe.setXltHandler(&xlt);
    // STF runs against the concealed store target, never guest memory.
    uops::UopExecutor stf(st, stfTarget);

    const uops::UopVec prog = program();

    bool running = true;
    while (running && res.insnsTranslated < max_insns) {
        const u32 pc_before = st.regs[uops::R_X86PC];
        const u32 cc_before = st.regs[uops::R_CODECACHE];
        std::size_t i = 0;
        while (i < prog.size()) {
            const Uop &u = prog[i];
            const uops::UopExecutor::Outcome o =
                u.op == UOp::StF ? stf.exec(u) : exe.exec(u);
            ++res.uopsExecuted;
            // Fused pairs issue as a single entity: the tail's cycle
            // is absorbed by the head.
            if (!(i > 0 && prog[i - 1].fusedHead))
                res.cycles += uopLatency(u);
            if (o.fault)
                cdvm_panic("HAloop micro-op faulted");
            if (o.taken) {
                if (o.target == HALOOP_TOP)
                    break; // next iteration
                res.stoppedComplex = o.target == HALOOP_EXIT_COMPLEX;
                res.stoppedCti = o.target == HALOOP_EXIT_CTI;
                running = false;
                break;
            }
            ++i;
        }
        if (running) {
            ++res.insnsTranslated;
            Step step;
            step.insnLen = static_cast<u8>(st.regs[uops::R_X86PC] -
                                           pc_before);
            step.uopBytes = static_cast<u8>(
                st.regs[uops::R_CODECACHE] - cc_before);
            res.steps.push_back(step);
        }
        x86_pc = st.regs[uops::R_X86PC];
    }

    res.stoppedAt = st.regs[uops::R_X86PC];
    res.bytesEmitted =
        st.regs[uops::R_CODECACHE] - static_cast<u32>(code_addr);

    totalInsns += res.insnsTranslated;
    totalCycles += res.cycles;
    return res;
}

} // namespace cdvm::hwassist
