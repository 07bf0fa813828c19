//===- isa/Instruction.cpp - SASS-like instruction representation ---------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "isa/Instruction.h"

#include "support/Format.h"

using namespace gpuperf;

const char *gpuperf::memWidthSuffix(MemWidth W) {
  switch (W) {
  case MemWidth::B32:
    return "";
  case MemWidth::B64:
    return ".64";
  case MemWidth::B128:
    return ".128";
  }
  return "";
}

const char *gpuperf::specialRegName(SpecialReg SR) {
  switch (SR) {
  case SpecialReg::TID_X:
    return "SR_TID.X";
  case SpecialReg::TID_Y:
    return "SR_TID.Y";
  case SpecialReg::CTAID_X:
    return "SR_CTAID.X";
  case SpecialReg::CTAID_Y:
    return "SR_CTAID.Y";
  case SpecialReg::NTID_X:
    return "SR_NTID.X";
  case SpecialReg::NTID_Y:
    return "SR_NTID.Y";
  case SpecialReg::NCTAID_X:
    return "SR_NCTAID.X";
  case SpecialReg::NCTAID_Y:
    return "SR_NCTAID.Y";
  }
  return "SR_?";
}

const char *gpuperf::cmpOpName(CmpOp C) {
  switch (C) {
  case CmpOp::LT:
    return "LT";
  case CmpOp::LE:
    return "LE";
  case CmpOp::GT:
    return "GT";
  case CmpOp::GE:
    return "GE";
  case CmpOp::EQ:
    return "EQ";
  case CmpOp::NE:
    return "NE";
  }
  return "??";
}

bool Instruction::immReplacesSrc1() const {
  if (!HasImm)
    return false;
  switch (Op) {
  case Opcode::IADD:
  case Opcode::IMUL:
  case Opcode::IMAD:
  case Opcode::SHL:
  case Opcode::SHR:
  case Opcode::LOP_AND:
  case Opcode::LOP_OR:
  case Opcode::LOP_XOR:
  case Opcode::ISETP:
    return true;
  default:
    return false;
  }
}

RegList Instruction::sourceRegs() const {
  RegList L;
  const OpcodeInfo &Info = opcodeInfo(Op);
  int Slots = Info.NumSrcRegs;
  bool ImmSlot1 = immReplacesSrc1();
  for (int I = 0; I < Slots; ++I) {
    if (ImmSlot1 && I == 1)
      continue;
    uint8_t Reg = Src[I];
    if (Reg == RegRZ)
      continue;
    // Stores widen their data operand (the second slot).
    bool DataSlot = (Op == Opcode::STS || Op == Opcode::ST) && I == 1;
    int Words = DataSlot ? memWidthRegs(Width) : 1;
    for (int W = 0; W < Words; ++W)
      L.push(static_cast<uint8_t>(Reg + W));
  }
  return L;
}

RegList Instruction::destRegs() const {
  RegList L;
  if (!opcodeInfo(Op).HasDstReg || Dst == RegRZ)
    return L;
  int Words =
      (Op == Opcode::LDS || Op == Opcode::LD) ? memWidthRegs(Width) : 1;
  for (int W = 0; W < Words; ++W)
    L.push(static_cast<uint8_t>(Dst + W));
  return L;
}

int Instruction::numSourceSlots() const {
  // Count only slots holding a real register.
  int N = 0;
  bool ImmSlot1 = immReplacesSrc1();
  for (int I = 0; I < opcodeInfo(Op).NumSrcRegs; ++I) {
    if (ImmSlot1 && I == 1)
      continue;
    if (Src[I] != RegRZ)
      ++N;
  }
  return N;
}

int Instruction::numDistinctSourceRegs() const {
  RegList Seen;
  bool ImmSlot1 = immReplacesSrc1();
  for (int I = 0; I < opcodeInfo(Op).NumSrcRegs; ++I) {
    if (ImmSlot1 && I == 1)
      continue;
    uint8_t Reg = Src[I];
    if (Reg == RegRZ || Seen.contains(Reg))
      continue;
    Seen.push(Reg);
  }
  return Seen.Count;
}

bool Instruction::dstIsAlsoSource() const {
  if (!opcodeInfo(Op).HasDstReg || Dst == RegRZ)
    return false;
  bool ImmSlot1 = immReplacesSrc1();
  for (int I = 0; I < opcodeInfo(Op).NumSrcRegs; ++I) {
    if (ImmSlot1 && I == 1)
      continue;
    if (Src[I] == Dst)
      return true;
  }
  return false;
}

/// Renders a register name ("R5" or "RZ").
static std::string regName(uint8_t Reg) {
  if (Reg == RegRZ)
    return "RZ";
  return formatString("R%u", Reg);
}

std::string Instruction::toString() const {
  std::string S;
  if (GuardPred != PredPT || GuardNeg)
    S += formatString("@%sP%u ", GuardNeg ? "!" : "", GuardPred);

  const OpcodeInfo &Info = opcodeInfo(Op);
  switch (Op) {
  case Opcode::NOP:
  case Opcode::BAR:
  case Opcode::EXIT:
    S += std::string(Info.Mnemonic);
    if (Op == Opcode::BAR)
      S += ".SYNC";
    return S;
  case Opcode::BRA:
    S += formatString("BRA %d", Imm);
    return S;
  case Opcode::ISETP:
    S += formatString("ISETP.%s P%u, %s, ", cmpOpName(cmpOp()), Dst,
                      regName(Src[0]).c_str());
    S += immReplacesSrc1() ? formatString("%d", Imm)
                           : regName(Src[1]);
    return S;
  case Opcode::S2R:
    S += formatString("S2R %s, %s", regName(Dst).c_str(),
                      specialRegName(specialReg()));
    return S;
  case Opcode::MOV32I:
    S += formatString("MOV32I %s, 0x%x", regName(Dst).c_str(),
                      static_cast<uint32_t>(Imm));
    return S;
  case Opcode::LDC:
    S += formatString("LDC %s, c[0x%x]", regName(Dst).c_str(),
                      static_cast<uint32_t>(Imm));
    return S;
  case Opcode::LDS:
  case Opcode::LD:
    S += formatString("%.*s%s %s, [%s%+d]",
                      static_cast<int>(Info.Mnemonic.size()),
                      Info.Mnemonic.data(), memWidthSuffix(Width),
                      regName(Dst).c_str(), regName(Src[0]).c_str(), Imm);
    return S;
  case Opcode::STS:
  case Opcode::ST:
    S += formatString("%.*s%s [%s%+d], %s",
                      static_cast<int>(Info.Mnemonic.size()),
                      Info.Mnemonic.data(), memWidthSuffix(Width),
                      regName(Src[0]).c_str(), Imm, regName(Src[1]).c_str());
    return S;
  case Opcode::ISCADD:
    S += formatString("ISCADD %s, %s, %s, 0x%x", regName(Dst).c_str(),
                      regName(Src[0]).c_str(), regName(Src[1]).c_str(),
                      iscaddShift());
    return S;
  default:
    break;
  }

  // Generic math/move form: DST, SRC0[, SRC1[, SRC2]].
  S += std::string(Info.Mnemonic);
  S += " " + regName(Dst);
  bool ImmSlot1 = immReplacesSrc1();
  for (int I = 0; I < Info.NumSrcRegs; ++I) {
    S += ", ";
    if (ImmSlot1 && I == 1)
      S += formatString("%d", Imm);
    else
      S += regName(Src[I]);
  }
  return S;
}

// --- Convenience constructors ---------------------------------------------

namespace {
Instruction base(Opcode Op) {
  Instruction I;
  I.Op = Op;
  return I;
}
} // namespace

Instruction gpuperf::makeFFMA(uint8_t Rd, uint8_t Ra, uint8_t Rb,
                              uint8_t Rc) {
  Instruction I = base(Opcode::FFMA);
  I.Dst = Rd;
  I.Src[0] = Ra;
  I.Src[1] = Rb;
  I.Src[2] = Rc;
  return I;
}

Instruction gpuperf::makeFADD(uint8_t Rd, uint8_t Ra, uint8_t Rb) {
  Instruction I = base(Opcode::FADD);
  I.Dst = Rd;
  I.Src[0] = Ra;
  I.Src[1] = Rb;
  return I;
}

Instruction gpuperf::makeFMUL(uint8_t Rd, uint8_t Ra, uint8_t Rb) {
  Instruction I = base(Opcode::FMUL);
  I.Dst = Rd;
  I.Src[0] = Ra;
  I.Src[1] = Rb;
  return I;
}

Instruction gpuperf::makeIADDImm(uint8_t Rd, uint8_t Ra, int32_t Imm) {
  Instruction I = base(Opcode::IADD);
  I.Dst = Rd;
  I.Src[0] = Ra;
  I.HasImm = true;
  I.Imm = Imm;
  return I;
}

Instruction gpuperf::makeIADD(uint8_t Rd, uint8_t Ra, uint8_t Rb) {
  Instruction I = base(Opcode::IADD);
  I.Dst = Rd;
  I.Src[0] = Ra;
  I.Src[1] = Rb;
  return I;
}

Instruction gpuperf::makeMOV32I(uint8_t Rd, uint32_t Imm) {
  Instruction I = base(Opcode::MOV32I);
  I.Dst = Rd;
  I.HasImm = true;
  I.Imm = static_cast<int32_t>(Imm);
  return I;
}

Instruction gpuperf::makeMOV(uint8_t Rd, uint8_t Ra) {
  Instruction I = base(Opcode::MOV);
  I.Dst = Rd;
  I.Src[0] = Ra;
  return I;
}

Instruction gpuperf::makeS2R(uint8_t Rd, SpecialReg SR) {
  Instruction I = base(Opcode::S2R);
  I.Dst = Rd;
  I.setSpecialReg(SR);
  return I;
}

Instruction gpuperf::makeLDC(uint8_t Rd, int32_t ByteOffset) {
  Instruction I = base(Opcode::LDC);
  I.Dst = Rd;
  I.HasImm = true;
  I.Imm = ByteOffset;
  return I;
}

Instruction gpuperf::makeLDS(MemWidth W, uint8_t Rd, uint8_t Ra,
                             int32_t Offset) {
  Instruction I = base(Opcode::LDS);
  I.Width = W;
  I.Dst = Rd;
  I.Src[0] = Ra;
  I.HasImm = true;
  I.Imm = Offset;
  return I;
}

Instruction gpuperf::makeSTS(MemWidth W, uint8_t Ra, int32_t Offset,
                             uint8_t Rv) {
  Instruction I = base(Opcode::STS);
  I.Width = W;
  I.Src[0] = Ra;
  I.Src[1] = Rv;
  I.HasImm = true;
  I.Imm = Offset;
  return I;
}

Instruction gpuperf::makeLD(MemWidth W, uint8_t Rd, uint8_t Ra,
                            int32_t Offset) {
  Instruction I = base(Opcode::LD);
  I.Width = W;
  I.Dst = Rd;
  I.Src[0] = Ra;
  I.HasImm = true;
  I.Imm = Offset;
  return I;
}

Instruction gpuperf::makeST(MemWidth W, uint8_t Ra, int32_t Offset,
                            uint8_t Rv) {
  Instruction I = base(Opcode::ST);
  I.Width = W;
  I.Src[0] = Ra;
  I.Src[1] = Rv;
  I.HasImm = true;
  I.Imm = Offset;
  return I;
}

Instruction gpuperf::makeISETP(CmpOp C, uint8_t Pd, uint8_t Ra, uint8_t Rb) {
  Instruction I = base(Opcode::ISETP);
  I.Dst = Pd;
  I.Src[0] = Ra;
  I.Src[1] = Rb;
  I.setCmpOp(C);
  return I;
}

Instruction gpuperf::makeBRA(int32_t Offset, uint8_t Pred, bool Neg) {
  Instruction I = base(Opcode::BRA);
  I.HasImm = true;
  I.Imm = Offset;
  I.GuardPred = Pred;
  I.GuardNeg = Neg;
  return I;
}

Instruction gpuperf::makeBAR() { return base(Opcode::BAR); }

Instruction gpuperf::makeEXIT() { return base(Opcode::EXIT); }

Instruction gpuperf::makeIMUL(uint8_t Rd, uint8_t Ra, uint8_t Rb) {
  Instruction I = base(Opcode::IMUL);
  I.Dst = Rd;
  I.Src[0] = Ra;
  I.Src[1] = Rb;
  return I;
}

Instruction gpuperf::makeIMAD(uint8_t Rd, uint8_t Ra, uint8_t Rb,
                              uint8_t Rc) {
  Instruction I = base(Opcode::IMAD);
  I.Dst = Rd;
  I.Src[0] = Ra;
  I.Src[1] = Rb;
  I.Src[2] = Rc;
  return I;
}

Instruction gpuperf::makeIMADImm(uint8_t Rd, uint8_t Ra, int32_t Imm,
                                 uint8_t Rc) {
  Instruction I = base(Opcode::IMAD);
  I.Dst = Rd;
  I.Src[0] = Ra;
  I.Src[2] = Rc;
  I.HasImm = true;
  I.Imm = Imm;
  return I;
}

Instruction gpuperf::makeSHLImm(uint8_t Rd, uint8_t Ra, int32_t Imm) {
  Instruction I = base(Opcode::SHL);
  I.Dst = Rd;
  I.Src[0] = Ra;
  I.HasImm = true;
  I.Imm = Imm;
  return I;
}

Instruction gpuperf::makeISCADD(uint8_t Rd, uint8_t Ra, uint8_t Rb,
                                int Shift) {
  Instruction I = base(Opcode::ISCADD);
  I.Dst = Rd;
  I.Src[0] = Ra;
  I.Src[1] = Rb;
  I.setIscaddShift(Shift);
  return I;
}

Instruction gpuperf::makeXORImm(uint8_t Rd, uint8_t Ra, int32_t Imm) {
  Instruction I = base(Opcode::LOP_XOR);
  I.Dst = Rd;
  I.Src[0] = Ra;
  I.HasImm = true;
  I.Imm = Imm;
  return I;
}
