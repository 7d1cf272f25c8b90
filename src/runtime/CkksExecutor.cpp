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
#include <chrono>
#include <cmath>
#include <functional>
#include <optional>
#include <tuple>

using namespace eva;

static_assert(static_cast<size_t>(OpCode::NormalizeScale) <
                  std::tuple_size_v<decltype(ExecutionStats::OpNanos)>,
              "ExecutionStats::OpNanos has a slot per opcode");

namespace {

uint64_t nanosSince(std::chrono::steady_clock::time_point Start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

/// One runtime value: an owned ciphertext or a view of a plain vector.
struct Value {
  std::optional<Ciphertext> Ct;
  std::shared_ptr<const std::vector<double>> Plain;
  bool isCipher() const { return Ct.has_value(); }
};

/// Per-run state of one hoist batch. The source's step writes Digits, and
/// every member's step reads them without a lock: no member can start
/// before the source's step has returned (see CkksExecutor::step). The
/// member whose step takes PendingMembers to zero frees them. The digits
/// are stored extended, L^2 limbs at L primes, and count as live bytes.
struct HoistBatch {
  Evaluator::KeySwitchDigits Digits;
  std::atomic<size_t> PendingMembers{0};
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
  // The session keeps, of the uploaded keys, those the program's rotations
  // read, each cut to its level.
  GaloisKeys Gk;
  for (auto [Step, Primes] : CP.galoisKeyPrimes()) {
    if (Step == 0)
      continue;
    uint64_t G = galoisEltFromStep(Step, CP.PolyDegree);
    auto It = GkIn.Keys.find(G);
    if (It == GkIn.Keys.end())
      return Result::error("missing galois key for rotation step " +
                           std::to_string(Step));
    // A rotation by this step at Primes data primes reads Primes digits.
    if (It->second.Keys.size() < Primes)
      return Result::error("galois key for rotation step " +
                           std::to_string(Step) + " has " +
                           std::to_string(It->second.Keys.size()) +
                           " digits, the program rotates by it at " +
                           std::to_string(Primes) + " primes");
    It->second.trimTo(Primes);
    Gk.Keys.emplace(G, std::move(It->second));
  }

  std::shared_ptr<CkksWorkspace> WS = std::make_shared<CkksWorkspace>();
  WS->Context = std::move(Ctx);
  WS->Encoder = std::make_unique<CkksEncoder>(WS->Context);
  WS->Rk = std::move(RkIn);
  WS->Gk = std::move(Gk);
  return WS;
}

Expected<std::shared_ptr<CkksWorkspace>>
CkksWorkspace::createClient(std::shared_ptr<const CkksContext> Ctx,
                            const std::map<uint64_t, size_t> &RotationKeyPrimes,
                            bool NeedsRelin, uint64_t Seed,
                            bool ReproducibleSeeds) {
  using Result = Expected<std::shared_ptr<CkksWorkspace>>;
  if (!Ctx)
    return Result::error("client workspace needs a context");
  if (ReproducibleSeeds && Seed == 0)
    return Result::error("reproducible seeds require a nonzero seed");
  std::shared_ptr<CkksWorkspace> WS = std::make_shared<CkksWorkspace>();
  WS->Context = std::move(Ctx);
  WS->Encoder = std::make_unique<CkksEncoder>(WS->Context);
  WS->KeyGen =
      std::make_unique<KeyGenerator>(WS->Context, Seed, ReproducibleSeeds);
  WS->Enc =
      std::make_unique<Encryptor>(WS->Context, Seed + 1, ReproducibleSeeds);
  WS->Dec = std::make_unique<Decryptor>(WS->Context, WS->KeyGen->secretKey());
  if (NeedsRelin)
    WS->Rk = WS->KeyGen->createRelinKeys();
  WS->Gk = WS->KeyGen->createGaloisKeysAtLevels(RotationKeyPrimes);
  return WS;
}

Expected<std::shared_ptr<CkksWorkspace>>
CkksWorkspace::createClient(const CompiledProgram &CP, uint64_t Seed,
                            bool ReproducibleSeeds) {
  using Result = Expected<std::shared_ptr<CkksWorkspace>>;
  Expected<std::shared_ptr<CkksContext>> Ctx =
      CkksContext::createFromBitSizes(CP.PolyDegree, CP.contextBitSizes(),
                                      CP.Options.Security);
  if (!Ctx)
    return Ctx.takeStatus();
  if (Ctx.value()->slotCount() < CP.Prog->vecSize())
    return Result::error("vector size exceeds slot count");
  return createClient(Ctx.value(), CP.galoisKeyPrimes(),
                      countOps(*CP.Prog, OpCode::Relinearize) > 0, Seed,
                      ReproducibleSeeds);
}

struct CkksExecutor::RunState {
  /// \p Plan is null when hoisting is off.
  RunState(const Program &P, const SealedInputs &Inputs,
           const RotationPlan *Plan)
      : Inputs(Inputs), Order(P.forwardOrder()), Values(P.maxNodeId()),
        PendingUses(P.maxNodeId()), Hoist(Plan ? Plan->Groups.size() : 0),
        BatchOfSource(P.maxNodeId()), BatchOfMember(P.maxNodeId()) {
    for (const Node *N : Order)
      PendingUses[N->id()].store(static_cast<int>(N->uses().size()));
    for (size_t I = 0; I < Hoist.size(); ++I) {
      const RotationPlan::HoistGroup &G = Plan->Groups[I];
      BatchOfSource[G.Source->id()] = &Hoist[I];
      for (const Node *M : G.Members)
        BatchOfMember[M->id()] = &Hoist[I];
      Hoist[I].PendingMembers.store(G.Members.size());
    }
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
  std::vector<HoistBatch> Hoist;
  /// Node id -> the batch the node is the source or a member of, or null.
  std::vector<HoistBatch *> BatchOfSource;
  std::vector<HoistBatch *> BatchOfMember;
  /// Ciphertexts in Values plus hoist digits not yet freed.
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
    // A hoist batch member rotates against the digits its source's step
    // decomposed; the result is bit-identical to rotateLeft's.
    if (const HoistBatch *B = S.BatchOfMember[N->id()])
      Slot.Ct = E.rotateDecomposed(CA, B->Digits, Steps, WS->Gk);
    else
      Slot.Ct = E.rotateLeft(CA, Steps, WS->Gk);
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
  auto Start = std::chrono::steady_clock::now();
  computeNode(N, S);
  chargeOpNanos(static_cast<size_t>(N->op()), nanosSince(Start));
  const std::optional<Ciphertext> &Ct = S.Values[N->id()].Ct;
  if (Ct) {
    size_t Bytes = Ct->memoryBytes();
    raiseToAtLeast(S.PeakBytes, S.LiveBytes.fetch_add(Bytes) + Bytes);
    raiseToAtLeast(S.PeakNodes, S.LiveNodes.fetch_add(1) + 1);
  }
  // The source of a hoist batch decomposes here, once and limb-parallel.
  // The DAG schedule submits a node's children only after its step returns,
  // and a kernel wavefront ends only after all of its steps, so every
  // member finds the digits written.
  if (HoistBatch *B = S.BatchOfSource[N->id()]) {
    auto DecomposeStart = std::chrono::steady_clock::now();
    B->Digits = Eval.decomposeForRotation(*Ct);
    charge(&ExecutionStats::HoistDecomposeNanos, nanosSince(DecomposeStart));
    size_t Bytes = B->Digits.bytes();
    raiseToAtLeast(S.PeakBytes, S.LiveBytes.fetch_add(Bytes) + Bytes);
  }
  // The batch's last member frees the digits.
  if (HoistBatch *B = S.BatchOfMember[N->id()];
      B && B->PendingMembers.fetch_sub(1) == 1) {
    S.LiveBytes.fetch_sub(B->Digits.bytes());
    B->Digits = Evaluator::KeySwitchDigits();
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

  RunState S(P, Inputs, UseHoisting ? &CP.RotPlan : nullptr);
  if (Style == LocalStyle::KernelBulk)
    runKernelBulk(S);
  else
    runDag(S);
  Stats.PeakLiveBytes = S.PeakBytes.load();
  Stats.PeakLiveNodes = S.PeakNodes.load();
  return std::move(S.Outputs);
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
