//===- CostLedger.cpp - Per-run cost ledger -------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/support/CostLedger.h"

using namespace eva;

namespace {
thread_local ExecutionStats *Current = nullptr;
} // namespace

ExecutionStats *eva::currentLedger() { return Current; }

LedgerScope::LedgerScope(ExecutionStats *Ledger) : Prev(Current) {
  Current = Ledger;
}

LedgerScope::~LedgerScope() { Current = Prev; }
