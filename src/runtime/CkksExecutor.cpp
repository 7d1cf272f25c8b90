//===- CkksExecutor.cpp - Encrypted execution ----------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/runtime/CkksExecutor.h"

#include "eva/ckks/Galois.h"
#include "eva/ir/Printer.h"
#include "eva/math/Primes.h"

#include <atomic>
#include <cmath>
#include <condition_variable>

using namespace eva;

Expected<std::shared_ptr<CkksWorkspace>>
CkksWorkspace::create(const CompiledProgram &CP, uint64_t Seed) {
  using Result = Expected<std::shared_ptr<CkksWorkspace>>;
  Expected<std::shared_ptr<CkksContext>> Ctx =
      CkksContext::createFromBitSizes(CP.PolyDegree, CP.contextBitSizes(),
                                      CP.Options.Security);
  if (!Ctx)
    return Ctx.takeStatus();
  if (Ctx.value()->slotCount() < CP.Prog->vecSize())
    return Result::error("vector size exceeds slot count");

  std::shared_ptr<CkksWorkspace> WS = std::make_shared<CkksWorkspace>();
  WS->Context = Ctx.value();
  WS->Encoder = std::make_unique<CkksEncoder>(WS->Context);
  WS->KeyGen = std::make_unique<KeyGenerator>(WS->Context, Seed);
  WS->Pk = WS->KeyGen->createPublicKey();
  WS->Rk = WS->KeyGen->createRelinKeys();
  WS->Gk = WS->KeyGen->createGaloisKeys(
      std::set<uint64_t>(CP.RotationSteps.begin(), CP.RotationSteps.end()));
  WS->Enc = std::make_unique<Encryptor>(WS->Context, WS->Pk, Seed + 1);
  WS->Dec = std::make_unique<Decryptor>(WS->Context, WS->KeyGen->secretKey());
  WS->Eval = std::make_unique<Evaluator>(WS->Context);
  return WS;
}

Expected<std::shared_ptr<CkksWorkspace>>
CkksWorkspace::createServer(const CompiledProgram &CP,
                            std::shared_ptr<const CkksContext> Ctx,
                            RelinKeys RkIn, GaloisKeys GkIn) {
  using Result = Expected<std::shared_ptr<CkksWorkspace>>;
  if (!Ctx)
    return Result::error("server workspace needs a context");
  if (Ctx->polyDegree() != CP.PolyDegree)
    return Result::error("context degree does not match compiled program");
  if (Ctx->slotCount() < CP.Prog->vecSize())
    return Result::error("vector size exceeds slot count");
  if (RkIn.empty() && countOps(*CP.Prog, OpCode::Relinearize) > 0)
    return Result::error("program relinearizes but no relin key was supplied");
  for (uint64_t Step : CP.RotationSteps) {
    if (Step == 0)
      continue;
    if (!GkIn.has(galoisEltFromStep(Step, CP.PolyDegree)))
      return Result::error("missing galois key for rotation step " +
                           std::to_string(Step));
  }

  std::shared_ptr<CkksWorkspace> WS = std::make_shared<CkksWorkspace>();
  WS->Context = std::move(Ctx);
  WS->Encoder = std::make_unique<CkksEncoder>(WS->Context);
  WS->Rk = std::move(RkIn);
  WS->Gk = std::move(GkIn);
  WS->Eval = std::make_unique<Evaluator>(WS->Context);
  return WS;
}

Expected<std::shared_ptr<CkksWorkspace>>
CkksWorkspace::createClient(const CompiledProgram &CP, uint64_t Seed,
                            bool ReproducibleSeeds) {
  using Result = Expected<std::shared_ptr<CkksWorkspace>>;
  if (ReproducibleSeeds && Seed == 0)
    return Result::error("reproducible seeds require a nonzero seed");
  Expected<std::shared_ptr<CkksContext>> Ctx =
      CkksContext::createFromBitSizes(CP.PolyDegree, CP.contextBitSizes(),
                                      CP.Options.Security);
  if (!Ctx)
    return Ctx.takeStatus();
  if (Ctx.value()->slotCount() < CP.Prog->vecSize())
    return Result::error("vector size exceeds slot count");

  // Field-for-field the stack (and generation order) of
  // ServiceClient::openSession: any divergence breaks local/remote
  // bit-identity.
  std::shared_ptr<CkksWorkspace> WS = std::make_shared<CkksWorkspace>();
  WS->Context = Ctx.value();
  WS->Encoder = std::make_unique<CkksEncoder>(WS->Context);
  WS->KeyGen =
      std::make_unique<KeyGenerator>(WS->Context, Seed, ReproducibleSeeds);
  WS->Enc =
      std::make_unique<Encryptor>(WS->Context, Seed + 1, ReproducibleSeeds);
  WS->Dec = std::make_unique<Decryptor>(WS->Context, WS->KeyGen->secretKey());
  if (countOps(*CP.Prog, OpCode::Relinearize) > 0)
    WS->Rk = WS->KeyGen->createRelinKeys();
  WS->Gk = WS->KeyGen->createGaloisKeys(
      std::set<uint64_t>(CP.RotationSteps.begin(), CP.RotationSteps.end()));
  WS->Eval = std::make_unique<Evaluator>(WS->Context);
  return WS;
}

SealedInputs CkksExecutor::encryptInputs(
    const std::map<std::string, std::vector<double>> &Inputs) {
  if (!WS->Enc)
    fatalError("encryptInputs on an evaluation-only (server) workspace");
  SealedInputs Out;
  for (const Node *N : P.inputs()) {
    auto It = Inputs.find(N->name());
    if (It == Inputs.end())
      fatalError("missing input @" + N->name());
    if (!N->isCipher()) {
      Out.Plain.emplace(N->name(), It->second);
      continue;
    }
    Plaintext Pt;
    WS->Encoder->encode(It->second, std::exp2(N->logScale()),
                        WS->Context->dataPrimeCount(), Pt);
    Out.Cipher.emplace(N->name(), WS->Enc->encrypt(Pt));
  }
  return Out;
}

std::vector<double> CkksExecutor::decryptOutput(const Ciphertext &Ct) const {
  if (!WS->Dec)
    fatalError("decryptOutput on an evaluation-only (server) workspace");
  std::vector<double> Slots = WS->Encoder->decode(WS->Dec->decrypt(Ct));
  Slots.resize(P.vecSize());
  return Slots;
}

const std::vector<double> &
CkksExecutor::plainValueOf(const Node *N, const std::vector<Value> &Values,
                           const SealedInputs &Inputs) const {
  switch (N->op()) {
  case OpCode::Constant:
    return N->constValue();
  case OpCode::Input: {
    auto It = Inputs.Plain.find(N->name());
    if (It == Inputs.Plain.end())
      fatalError("missing plain input @" + N->name());
    return It->second;
  }
  case OpCode::NormalizeScale:
    return plainValueOf(N->parm(0), Values, Inputs);
  default:
    fatalError("unexpected plain node kind");
  }
}

Plaintext CkksExecutor::encodeOperand(const Node *PlainNode,
                                      const std::vector<double> &V,
                                      size_t PrimeCount, double Scale) const {
  Plaintext Pt;
  if (PlainNode->type() == ValueType::Scalar && V.size() == 1)
    WS->Encoder->encodeScalar(V[0], Scale, PrimeCount, Pt);
  else
    WS->Encoder->encode(V, Scale, PrimeCount, Pt);
  return Pt;
}

uint64_t CkksExecutor::normalizedLeftSteps(const Node *N) const {
  return eva::normalizedLeftSteps(N, P.vecSize());
}

LedgerScope CkksExecutor::beginRun() {
  Stats = ExecutionStats();
  Stats.TotalNodeCount = P.nodeCount();
  HoistStashBytes.store(0);
  HoistStashNodes.store(0);
  HoistState.clear();
  if (UseHoisting)
    for (size_t I = 0; I < CP.RotPlan.Groups.size(); ++I)
      HoistState.push_back(std::make_unique<HoistGroupState>());
  return LedgerScope(&Stats);
}

void CkksExecutor::computeNode(const Node *N, std::vector<Value> &Values,
                               const SealedInputs &Inputs,
                               std::map<std::string, Ciphertext> &Outputs)
    const {
  Value &Slot = Values[N->id()];
  const Evaluator &E = *ActiveEval;

  // Plain-typed nodes are views onto plain vectors; no work at run time.
  if (N->isPlain() && N->op() != OpCode::Output) {
    Slot.Plain = std::shared_ptr<const std::vector<double>>(
        std::shared_ptr<void>(), &plainValueOf(N, Values, Inputs));
    return;
  }

  // Scheduling invariants are enforced with fatalError, not assert: the
  // default build is Release (-DNDEBUG), and a compiled-out check here would
  // turn a scheduler bug into a silent wrong answer or a crash on an empty
  // optional.
  auto CipherOf = [&](const Node *Parm) -> const Ciphertext & {
    const Value &V = Values[Parm->id()];
    if (!V.isCipher())
      fatalError("operand @" + std::to_string(Parm->id()) + " of node @" +
                 std::to_string(N->id()) +
                 " has no ciphertext: executed out of dependency order");
    return *V.Ct;
  };

  switch (N->op()) {
  case OpCode::Input: {
    auto It = Inputs.Cipher.find(N->name());
    if (It == Inputs.Cipher.end())
      fatalError("missing cipher input @" + N->name());
    Slot.Ct = It->second;
    break;
  }
  case OpCode::Output: {
    const Value &V = Values[N->parm(0)->id()];
    if (!V.isCipher())
      fatalError("plaintext outputs are not part of the EVA language");
    LockGuard Lock(OutputMutex);
    Outputs[N->name()] = *V.Ct;
    return;
  }
  case OpCode::Negate:
    Slot.Ct = E.negate(CipherOf(N->parm(0)));
    break;
  case OpCode::Add:
  case OpCode::Sub: {
    const Node *A = N->parm(0);
    const Node *B = N->parm(1);
    if (!A->isCipher())
      fatalError("ADD/SUB with a plain first operand: the frontend "
                 "normalizes the cipher operand first");
    const Ciphertext &CA = CipherOf(A);
    if (B->isCipher()) {
      Slot.Ct = N->op() == OpCode::Add ? E.add(CA, CipherOf(B))
                                       : E.sub(CA, CipherOf(B));
    } else {
      // Additive plain operands encode at the ciphertext's (nominal) scale
      // so Constraint 2 holds exactly at run time.
      Plaintext Pt = encodeOperand(B, *Values[B->id()].Plain, CA.primeCount(),
                                   CA.Scale);
      Slot.Ct = N->op() == OpCode::Add ? E.addPlain(CA, Pt)
                                       : E.subPlain(CA, Pt);
    }
    break;
  }
  case OpCode::Multiply: {
    const Node *A = N->parm(0);
    const Node *B = N->parm(1);
    if (!A->isCipher())
      fatalError("MULTIPLY with a plain first operand: the frontend "
                 "normalizes the cipher operand first");
    const Ciphertext &CA = CipherOf(A);
    if (B->isCipher()) {
      Slot.Ct = E.multiply(CA, CipherOf(B));
    } else {
      Plaintext Pt = encodeOperand(B, *Values[B->id()].Plain, CA.primeCount(),
                                   std::exp2(B->logScale()));
      Slot.Ct = E.multiplyPlain(CA, Pt);
    }
    break;
  }
  case OpCode::RotateLeft:
  case OpCode::RotateRight: {
    uint64_t Steps = normalizedLeftSteps(N);
    const Ciphertext &CA = CipherOf(N->parm(0));
    if (Steps == 0) {
      Slot.Ct = CA;
      break;
    }
    auto GIt = UseHoisting && !HoistState.empty()
                   ? CP.RotPlan.GroupOf.find(N->id())
                   : CP.RotPlan.GroupOf.end();
    if (GIt == CP.RotPlan.GroupOf.end()) {
      Slot.Ct = E.rotateLeft(CA, Steps, WS->Gk);
      break;
    }
    // Hoist batch: whichever member executes first computes every rotation
    // of the shared source against one key-switch decomposition; the others
    // pick up their precomputed ciphertexts. Results are bit-identical to
    // the serial path (see Evaluator::rotateHoisted), so schedules with and
    // without hoisting decrypt to the same bits.
    const RotationPlan::HoistGroup &G = CP.RotPlan.Groups[GIt->second];
    HoistGroupState &St = *HoistState[GIt->second];
    LockGuard Lock(St.M);
    if (!St.Done) {
      std::vector<uint64_t> StepList(G.Members.size());
      for (size_t I = 0; I < G.Members.size(); ++I)
        StepList[I] = normalizedLeftSteps(G.Members[I]);
      std::vector<Ciphertext> Outs = E.rotateHoisted(CA, StepList, WS->Gk);
      size_t StashBytes = 0;
      for (size_t I = 0; I < G.Members.size(); ++I) {
        StashBytes += Outs[I].memoryBytes();
        St.Results.emplace(G.Members[I]->id(), std::move(Outs[I]));
      }
      // The whole batch is live from this moment; members that have not
      // executed yet hold their results here, outside the Values table, so
      // the peak-memory accounting must see them too.
      HoistStashBytes.fetch_add(StashBytes);
      HoistStashNodes.fetch_add(G.Members.size());
      St.Done = true;
    }
    auto RIt = St.Results.find(N->id());
    if (RIt == St.Results.end())
      fatalError("hoist batch has no result for node @" +
                 std::to_string(N->id()) + ": node executed twice or the "
                 "rotation plan does not match the program");
    HoistStashBytes.fetch_sub(RIt->second.memoryBytes());
    HoistStashNodes.fetch_sub(1);
    Slot.Ct = std::move(RIt->second);
    St.Results.erase(RIt);
    break;
  }
  case OpCode::Relinearize:
    Slot.Ct = E.relinearize(CipherOf(N->parm(0)), WS->Rk);
    break;
  case OpCode::ModSwitch:
    Slot.Ct = E.modSwitch(CipherOf(N->parm(0)));
    break;
  case OpCode::Rescale:
    Slot.Ct = E.rescale(CipherOf(N->parm(0)));
    break;
  default:
    fatalError(std::string("cannot execute op ") + opName(N->op()));
  }

  // Scales are tracked exactly (RESCALE divides by the actual prime). The
  // conforming-chain validation guarantees both operands of any ADD/SUB
  // consumed the same primes, so their actual scales agree exactly — this
  // strengthens the paper's footnote-1 adjustment (which treats RESCALE as
  // division by 2^bits and accepts a small multiplicative bias per prime).
}

std::map<std::string, Ciphertext>
CkksExecutor::run(const SealedInputs &Inputs) {
  std::vector<Value> Values(P.maxNodeId());
  std::vector<size_t> PendingUses(P.maxNodeId(), 0);
  std::map<std::string, Ciphertext> Outputs;
  LedgerScope Ledger = beginRun();

  size_t LiveBytes = 0;
  size_t LiveNodes = 0;
  for (const Node *N : P.forwardOrder()) {
    computeNode(N, Values, Inputs, Outputs);
    PendingUses[N->id()] = N->uses().size();
    if (Values[N->id()].isCipher()) {
      LiveBytes += Values[N->id()].Ct->memoryBytes();
      ++LiveNodes;
      // Hoist-batch results still parked in HoistState count as live.
      Stats.PeakLiveBytes = std::max(Stats.PeakLiveBytes,
                                     LiveBytes + HoistStashBytes.load());
      Stats.PeakLiveNodes = std::max(Stats.PeakLiveNodes,
                                     LiveNodes + HoistStashNodes.load());
    }
    // Retire parents whose last child just consumed them (Section 6.1's
    // memory reuse).
    for (const Node *Parm : N->parms()) {
      if (--PendingUses[Parm->id()] == 0 && Values[Parm->id()].isCipher()) {
        LiveBytes -= Values[Parm->id()].Ct->memoryBytes();
        --LiveNodes;
        Values[Parm->id()].Ct.reset();
      }
    }
  }
  return Outputs;
}

std::map<std::string, std::vector<double>> CkksExecutor::runPlain(
    const std::map<std::string, std::vector<double>> &Inputs) {
  SealedInputs Sealed = encryptInputs(Inputs);
  std::map<std::string, Ciphertext> Encrypted = run(Sealed);
  std::map<std::string, std::vector<double>> Out;
  for (const auto &[Name, Ct] : Encrypted)
    Out.emplace(Name, decryptOutput(Ct));
  return Out;
}

std::map<std::string, Ciphertext>
ParallelCkksExecutor::run(const SealedInputs &Inputs) {
  std::vector<Value> Values(P.maxNodeId());
  std::map<std::string, Ciphertext> Outputs;
  LedgerScope Ledger = beginRun();

  std::vector<Node *> Order = P.forwardOrder();
  std::vector<std::atomic<int>> Deps(P.maxNodeId());
  std::vector<std::atomic<int>> Pending(P.maxNodeId());
  for (Node *N : Order) {
    Deps[N->id()].store(static_cast<int>(N->parmCount()));
    Pending[N->id()].store(static_cast<int>(N->uses().size()));
  }

  std::atomic<size_t> Remaining(Order.size());
  std::atomic<size_t> LiveBytes(0);
  std::atomic<size_t> PeakBytes(0);
  std::atomic<size_t> LiveNodes(0);
  std::atomic<size_t> PeakNodes(0);

  auto RaiseToAtLeast = [](std::atomic<size_t> &Peak, size_t Current) {
    size_t Prev = Peak.load();
    while (Current > Prev && !Peak.compare_exchange_weak(Prev, Current))
      ;
  };

  // The scheduler: a node is ready (active) when all parents are computed;
  // finishing a node may ready its children, which are submitted
  // immediately — the asynchronous schedule of Section 6.1.
  std::function<void(Node *)> Execute = [&](Node *N) {
    computeNode(N, Values, Inputs, Outputs);
    if (Values[N->id()].isCipher()) {
      size_t Bytes = Values[N->id()].Ct->memoryBytes();
      // Hoist-batch results still parked in HoistState count as live.
      RaiseToAtLeast(PeakBytes, LiveBytes.fetch_add(Bytes) + Bytes +
                                    HoistStashBytes.load());
      RaiseToAtLeast(PeakNodes,
                     LiveNodes.fetch_add(1) + 1 + HoistStashNodes.load());
    }
    for (const Node *Parm : N->parms()) {
      if (Pending[Parm->id()].fetch_sub(1) == 1 &&
          Values[Parm->id()].isCipher()) {
        LiveBytes.fetch_sub(Values[Parm->id()].Ct->memoryBytes());
        LiveNodes.fetch_sub(1);
        Values[Parm->id()].Ct.reset();
      }
    }
    for (Node *C : N->uses()) {
      if (Deps[C->id()].fetch_sub(1) == 1)
        Pool.submit([&, C] { Execute(C); });
    }
    if (Remaining.fetch_sub(1) == 1)
      Pool.poke(); // wake the cooperating caller: the DAG is done
  };

  for (Node *N : Order)
    if (N->parmCount() == 0)
      Pool.submit([&, N] { Execute(N); });

  // The caller is one of the pool's execution contexts: it runs ready-node
  // tasks itself until the whole DAG has executed (with a pool of size 1
  // this is the only thread that ever runs nodes).
  Pool.helpUntil([&] { return Remaining.load() == 0; });
  // Drain workers so no task still references this frame's state.
  Pool.waitIdle();
  Stats.PeakLiveBytes = PeakBytes.load();
  Stats.PeakLiveNodes = PeakNodes.load();
  return Outputs;
}

std::map<std::string, Ciphertext>
KernelBulkCkksExecutor::run(const SealedInputs &Inputs) {
  std::vector<Value> Values(P.maxNodeId());
  std::map<std::string, Ciphertext> Outputs;
  LedgerScope Ledger = beginRun();

  // Chunk the topological order at kernel boundaries; each chunk executes
  // bulk-synchronously (wavefronts with barriers), chunks run in sequence.
  std::vector<Node *> Order = P.forwardOrder();
  std::vector<int> Done(P.maxNodeId(), 0);
  size_t I = 0;
  while (I < Order.size()) {
    size_t J = I;
    int32_t Kernel = Order[I]->kernelId();
    while (J < Order.size() && Order[J]->kernelId() == Kernel)
      ++J;
    // Wavefronts inside [I, J).
    std::vector<Node *> Chunk(Order.begin() + I, Order.begin() + J);
    while (!Chunk.empty()) {
      std::vector<Node *> Wave;
      std::vector<Node *> Rest;
      for (Node *N : Chunk) {
        bool Ready = true;
        for (const Node *Parm : N->parms())
          if (!Done[Parm->id()])
            Ready = false;
        (Ready ? Wave : Rest).push_back(N);
      }
      // fatalError, not assert: under the default Release build an assert
      // compiles out and an empty wave spins forever.
      if (Wave.empty())
        fatalError("no progress inside kernel chunk: a node depends on a "
                   "later kernel (the frontend must tag kernels in "
                   "topological order)");
      Pool.parallelFor(Wave.size(), [&](size_t K) {
        computeNode(Wave[K], Values, Inputs, Outputs);
      });
      for (Node *N : Wave)
        Done[N->id()] = 1;
      Chunk = std::move(Rest);
    }
    I = J;
  }
  return Outputs;
}
