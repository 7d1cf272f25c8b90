//===- CkksExecutor.cpp - Encrypted execution ----------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/runtime/CkksExecutor.h"

#include "eva/ckks/Galois.h"
#include "eva/ir/Printer.h"
#include "eva/math/Primes.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <optional>

using namespace eva;

namespace {

/// One runtime value: an owned ciphertext or a view of a plain vector.
struct Value {
  std::optional<Ciphertext> Ct;
  std::shared_ptr<const std::vector<double>> Plain;
  bool isCipher() const { return Ct.has_value(); }
};

/// Per-run state of one hoist batch. The first member to execute computes
/// the whole batch under the group mutex (all members are ready the moment
/// the shared source is, so under the DAG schedule several may race here);
/// the rest collect their precomputed ciphertexts.
struct HoistGroupState {
  Mutex M;
  bool Done EVA_GUARDED_BY(M) = false;
  /// member node id -> rotated ct
  std::map<uint64_t, Ciphertext> Results EVA_GUARDED_BY(M);
};

void raiseToAtLeast(std::atomic<size_t> &Peak, size_t Current) {
  size_t Prev = Peak.load();
  while (Current > Prev && !Peak.compare_exchange_weak(Prev, Current))
    ;
}

const std::vector<double> &plainValueOf(const Node *N,
                                        const SealedInputs &Inputs) {
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
    return plainValueOf(N->parm(0), Inputs);
  default:
    fatalError("unexpected plain node kind");
  }
}

} // namespace

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
  return WS;
}

struct CkksExecutor::RunState {
  RunState(const Program &P, const SealedInputs &Inputs, size_t HoistGroups)
      : Inputs(Inputs), Order(P.forwardOrder()), Values(P.maxNodeId()),
        PendingUses(P.maxNodeId()), Hoist(HoistGroups) {
    for (const Node *N : Order)
      PendingUses[N->id()].store(static_cast<int>(N->uses().size()));
  }

  const SealedInputs &Inputs;
  /// Topological order of every node.
  std::vector<Node *> Order;
  std::vector<Value> Values;
  /// Uses of each node that have not executed yet; zero retires the node.
  std::vector<std::atomic<int>> PendingUses;
  /// Written under CkksExecutor::OutputMutex.
  std::map<std::string, Ciphertext> Outputs;
  /// One entry per RotationPlan group; empty when hoisting is off.
  std::vector<HoistGroupState> Hoist;
  /// Bytes/nodes currently parked in HoistGroupState::Results — rotated
  /// ciphertexts a batch produced that their member nodes have not yet
  /// collected. Folded into the peak accounting so the memory-reuse stats
  /// stay honest under hoisting.
  std::atomic<size_t> HoistStashBytes{0};
  std::atomic<size_t> HoistStashNodes{0};
  std::atomic<size_t> LiveBytes{0};
  std::atomic<size_t> PeakBytes{0};
  std::atomic<size_t> LiveNodes{0};
  std::atomic<size_t> PeakNodes{0};
};

CkksExecutor::CkksExecutor(const CompiledProgram &CP,
                           std::shared_ptr<CkksWorkspace> WS,
                           const ExecutorOptions &Opts)
    : CP(CP), P(*CP.Prog), WS(std::move(WS)), Style(Opts.Style),
      UseHoisting(Opts.Hoisting),
      // ThreadPool(0) would mean hardware concurrency; here 0 means 1.
      Pool(Opts.Style == LocalStyle::Serial
               ? 1
               : std::max<size_t>(1, Opts.Threads)),
      Eval(this->WS->Context, &Pool) {}

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

void CkksExecutor::computeNode(const Node *N, RunState &S) const {
  std::vector<Value> &Values = S.Values;
  Value &Slot = Values[N->id()];
  const Evaluator &E = Eval;

  // Plain-typed nodes are views onto plain vectors; no work at run time.
  if (N->isPlain() && N->op() != OpCode::Output) {
    Slot.Plain = std::shared_ptr<const std::vector<double>>(
        std::shared_ptr<void>(), &plainValueOf(N, S.Inputs));
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
    auto It = S.Inputs.Cipher.find(N->name());
    if (It == S.Inputs.Cipher.end())
      fatalError("missing cipher input @" + N->name());
    Slot.Ct = It->second;
    break;
  }
  case OpCode::Output: {
    const Value &V = Values[N->parm(0)->id()];
    if (!V.isCipher())
      fatalError("plaintext outputs are not part of the EVA language");
    LockGuard Lock(OutputMutex);
    S.Outputs[N->name()] = *V.Ct;
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
    auto GIt = S.Hoist.empty() ? CP.RotPlan.GroupOf.end()
                               : CP.RotPlan.GroupOf.find(N->id());
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
    HoistGroupState &St = S.Hoist[GIt->second];
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
      S.HoistStashBytes.fetch_add(StashBytes);
      S.HoistStashNodes.fetch_add(G.Members.size());
      St.Done = true;
    }
    auto RIt = St.Results.find(N->id());
    if (RIt == St.Results.end())
      fatalError("hoist batch has no result for node @" +
                 std::to_string(N->id()) + ": node executed twice or the "
                 "rotation plan does not match the program");
    S.HoistStashBytes.fetch_sub(RIt->second.memoryBytes());
    S.HoistStashNodes.fetch_sub(1);
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

void CkksExecutor::step(const Node *N, RunState &S) const {
  computeNode(N, S);
  if (const std::optional<Ciphertext> &Ct = S.Values[N->id()].Ct) {
    size_t Bytes = Ct->memoryBytes();
    // Hoist-batch results not yet collected by their nodes count as live.
    raiseToAtLeast(S.PeakBytes, S.LiveBytes.fetch_add(Bytes) + Bytes +
                                    S.HoistStashBytes.load());
    raiseToAtLeast(S.PeakNodes,
                   S.LiveNodes.fetch_add(1) + 1 + S.HoistStashNodes.load());
  }
  // Retire parents whose last use just ran (Section 6.1's memory reuse).
  for (const Node *Parm : N->parms()) {
    Value &V = S.Values[Parm->id()];
    if (S.PendingUses[Parm->id()].fetch_sub(1) == 1 && V.isCipher()) {
      S.LiveBytes.fetch_sub(V.Ct->memoryBytes());
      S.LiveNodes.fetch_sub(1);
      V.Ct.reset();
    }
  }
}

std::map<std::string, Ciphertext>
CkksExecutor::run(const SealedInputs &Inputs) {
  Stats = ExecutionStats();
  Stats.TotalNodeCount = P.nodeCount();
  LedgerScope Ledger(&Stats);

  RunState S(P, Inputs, UseHoisting ? CP.RotPlan.Groups.size() : 0);
  if (Style == LocalStyle::KernelBulk)
    runKernelBulk(S);
  else
    runDag(S);
  Stats.PeakLiveBytes = S.PeakBytes.load();
  Stats.PeakLiveNodes = S.PeakNodes.load();
  return std::move(S.Outputs);
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

void CkksExecutor::runDag(RunState &S) {
  std::vector<std::atomic<int>> Deps(P.maxNodeId());
  for (Node *N : S.Order)
    Deps[N->id()].store(static_cast<int>(N->parmCount()));
  std::atomic<size_t> Remaining(S.Order.size());

  // A node is ready (active) when all parents are computed; finishing a
  // node may ready its children, which are submitted immediately — the
  // asynchronous schedule of Section 6.1.
  std::function<void(Node *)> Execute = [&](Node *N) {
    step(N, S);
    for (Node *C : N->uses()) {
      if (Deps[C->id()].fetch_sub(1) == 1)
        Pool.submit([&, C] { Execute(C); });
    }
    if (Remaining.fetch_sub(1) == 1)
      Pool.poke(); // wake the cooperating caller: the DAG is done
  };

  for (Node *N : S.Order)
    if (N->parmCount() == 0)
      Pool.submit([&, N] { Execute(N); });

  // The caller is one of the pool's execution contexts: it runs ready-node
  // tasks itself until the whole DAG has executed (with a pool of size 1
  // this is the only thread that ever runs nodes).
  Pool.helpUntil([&] { return Remaining.load() == 0; });
  // Drain workers so no task still references this frame's state.
  Pool.waitIdle();
}

void CkksExecutor::runKernelBulk(RunState &S) {
  // Chunk the topological order at kernel boundaries; each chunk executes
  // bulk-synchronously (wavefronts with barriers), chunks run in sequence.
  const std::vector<Node *> &Order = S.Order;
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
      Pool.parallelFor(Wave.size(), [&](size_t K) { step(Wave[K], S); });
      for (Node *N : Wave)
        Done[N->id()] = 1;
      Chunk = std::move(Rest);
    }
    I = J;
  }
}
