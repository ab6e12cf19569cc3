#include "codegen/codegen_engine.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#ifdef BYPASS_CODEGEN_ENABLED
#include <dlfcn.h>
#include <unistd.h>

#include <filesystem>
#include <system_error>
#endif

namespace bypass {

uint64_t CgHashSource(const std::string& source) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (unsigned char c : source) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// ------------------------------------------------------- CompiledFnSlot

std::string CompiledFnSlot::error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

bool CompiledFnSlot::WaitReady(std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, timeout, [this] {
    return artifact_ != nullptr ||
           failed_.load(std::memory_order_relaxed);
  });
}

void CompiledFnSlot::Fulfill(
    std::shared_ptr<const CompiledArtifact> artifact, bool from_cache) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    artifact_ = std::move(artifact);
    from_cache_.store(from_cache, std::memory_order_release);
    // Publish the raw pointer last: once a reader sees ready() != null
    // the owning shared_ptr above is already in place.
    ready_.store(artifact_.get(), std::memory_order_release);
  }
  cv_.notify_all();
}

void CompiledFnSlot::Fail(std::string error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    error_ = std::move(error);
    failed_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
}

// ----------------------------------------------------- CompiledArtifact

CompiledArtifact::~CompiledArtifact() {
#ifdef BYPASS_CODEGEN_ENABLED
  if (handle_ != nullptr) dlclose(handle_);
#endif
}

// ------------------------------------------------------- CodegenEngine

bool CodegenEngine::BuiltWithCodegen() {
#ifdef BYPASS_CODEGEN_ENABLED
  return true;
#else
  return false;
#endif
}

#ifdef BYPASS_CODEGEN_ENABLED

namespace {

/// Compiler command line. The baked-in configure-time compiler is the
/// default so the JIT output matches the host build's ABI expectations;
/// BYPASS_CODEGEN_CXX in the environment overrides it (tests use this to
/// simulate a broken toolchain). Sanitizer flags are deliberately never
/// propagated: the emitted code is freestanding (no allocations, no
/// library calls), and an ASan-instrumented object would fail to load
/// into an uninstrumented-runtime-less process anyway.
std::string CompilerBinary() {
  if (const char* env = std::getenv("BYPASS_CODEGEN_CXX")) {
    if (env[0] != '\0') return env;
  }
#ifdef BYPASS_CODEGEN_CXX
  return BYPASS_CODEGEN_CXX;
#else
  return "c++";
#endif
}

/// Quoting-free invocation: paths are engine-generated (mkdtemp + short
/// names, no spaces); the compiler path comes from CMake/environment and
/// is single-quoted against spaces in build prefixes.
int RunCompiler(const std::string& src, const std::string& so,
                const std::string& err) {
  std::string cmd = "'";
  cmd += CompilerBinary();
  cmd += "' -O2 -fPIC -shared -std=c++17 -fno-exceptions -fno-rtti -x c++ ";
  cmd += src + " -o " + so + " 2>" + err;
  return std::system(cmd.c_str());
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::string();
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Removes the compile's on-disk artifacts on every exit path — the
/// SpillFile delete-on-drop discipline. Success paths run it too: once
/// dlopen mapped the object the inode lives on without its name.
struct FileJanitor {
  std::string src, so, err;
  ~FileJanitor() {
    if (!src.empty()) ::unlink(src.c_str());
    if (!so.empty()) ::unlink(so.c_str());
    if (!err.empty()) ::unlink(err.c_str());
  }
};

/// Process-wide toolchain verdict, settled exactly once per process by
/// the call_once in Available() — not per Database or per engine; tests
/// build databases by the hundred and the server path spins engines up
/// per pool, none of which should re-fork the compiler probe.
std::once_flag g_probe_once;
bool g_toolchain_ok = false;

bool ProbeToolchain() {
  char dir_template[] = "/tmp/bypassdb-cgprobe-XXXXXX";
  std::string base;
  if (const char* tmp = std::getenv("TMPDIR")) {
    if (tmp[0] != '\0') {
      base = std::string(tmp) + "/bypassdb-cgprobe-XXXXXX";
    }
  }
  char* templ = dir_template;
  std::string heap_template;
  if (!base.empty()) {
    heap_template = base;
    templ = heap_template.data();
  }
  char* dir = mkdtemp(templ);
  if (dir == nullptr) return false;
  const std::string d(dir);
  bool ok = false;
  {
    const std::string src = d + "/probe.cc";
    const std::string so = d + "/probe.so";
    const std::string err = d + "/probe.err";
    FileJanitor janitor{src, so, err};
    std::ofstream out(src);
    out << "extern \"C\" long long bypass_cg_abi() { return "
        << kCgAbiVersion << "; }\n";
    out.close();
    if (out && RunCompiler(src, so, err) == 0) {
      void* handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
      if (handle != nullptr) {
        using AbiFn = long long (*)();
        AbiFn abi = reinterpret_cast<AbiFn>(
            dlsym(handle, "bypass_cg_abi"));
        ok = abi != nullptr && abi() == kCgAbiVersion;
        dlclose(handle);
      }
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(d, ec);
  return ok;
}

}  // namespace

CodegenEngine::~CodegenEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    // Queued-but-unstarted jobs fail over to the interpreter.
    for (Pending& job : queue_) {
      job.slot->Fail("codegen engine shut down");
    }
    queue_.clear();
  }
  queue_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  if (!scratch_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(scratch_dir_, ec);
  }
}

bool CodegenEngine::Available() {
  std::call_once(g_probe_once, [] { g_toolchain_ok = ProbeToolchain(); });
  return g_toolchain_ok;
}

Result<std::string> CodegenEngine::EnsureScratchDir() {
  // Caller holds mu_.
  if (!scratch_dir_.empty()) return scratch_dir_;
  std::string templ = "/tmp/bypassdb-cg-XXXXXX";
  if (const char* tmp = std::getenv("TMPDIR")) {
    if (tmp[0] != '\0') templ = std::string(tmp) + "/bypassdb-cg-XXXXXX";
  }
  char* dir = mkdtemp(templ.data());
  if (dir == nullptr) {
    return Status::Internal("codegen: cannot create scratch directory");
  }
  scratch_dir_ = dir;
  return scratch_dir_;
}

std::shared_ptr<const CompiledArtifact> CodegenEngine::LookupLocked(
    uint64_t hash, uint64_t epoch) {
  auto it = cache_.find(hash);
  if (it == cache_.end()) return nullptr;
  // Epoch is part of the key: an artifact compiled against older
  // statistics is treated as absent (and replaced once the fresh compile
  // lands), so ANALYZE-invalidated code is never served even between
  // EvictStale sweeps.
  if (it->second->stats_epoch() != epoch) return nullptr;
  return it->second;
}

void CodegenEngine::NoteSharedHitLocked(uint64_t hash,
                                        uint64_t plan_tag) {
  auto it = first_plan_tag_.find(hash);
  if (it == first_plan_tag_.end()) {
    // Artifact predates tag tracking (or was submitted untagged before
    // the tag existed); adopt the hitting tag as the first submitter.
    first_plan_tag_[hash] = plan_tag;
    return;
  }
  if (plan_tag != 0 && it->second != 0 && it->second != plan_tag) {
    ++stats_.artifact_shared_hits;
  }
}

Result<std::shared_ptr<const CompiledArtifact>> CodegenEngine::Compile(
    const std::string& source, uint64_t hash, uint64_t epoch) {
  std::string dir;
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    BYPASS_ASSIGN_OR_RETURN(dir, EnsureScratchDir());
    seq = ++file_counter_;
  }
  const std::string stem = dir + "/cg_" + std::to_string(seq);
  FileJanitor janitor{stem + ".cc", stem + ".so", stem + ".err"};
  {
    std::ofstream out(janitor.src);
    out << source;
    if (!out.flush()) {
      return Status::Internal("codegen: cannot write " + janitor.src);
    }
  }
  const auto start = std::chrono::steady_clock::now();
  if (RunCompiler(janitor.src, janitor.so, janitor.err) != 0) {
    std::string diag = ReadFileOrEmpty(janitor.err);
    if (diag.size() > 2000) diag.resize(2000);
    return Status::Internal("codegen: host compiler failed: " + diag);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();
  void* handle = dlopen(janitor.so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* err = dlerror();
    return Status::Internal(std::string("codegen: dlopen failed: ") +
                            (err != nullptr ? err : "?"));
  }
  // A stale or foreign object (another ABI version, missing entry point)
  // is refused rather than called with mismatched structs.
  using AbiFn = long long (*)();
  AbiFn abi = reinterpret_cast<AbiFn>(dlsym(handle, "bypass_cg_abi"));
  CgRunFn run = nullptr;
  if (abi != nullptr && abi() == kCgAbiVersion) {
    run = reinterpret_cast<CgRunFn>(dlsym(handle, "bypass_cg_run"));
  }
  if (run == nullptr) {
    dlclose(handle);
    return Status::Internal("codegen: ABI mismatch in emitted object");
  }
  return std::make_shared<const CompiledArtifact>(handle, run, hash, epoch,
                                                  seconds);
}

void CodegenEngine::ProcessOne(Pending job) {
  // Re-check the cache: a concurrent submit of the same source may have
  // landed while this job sat in the queue.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto cached = LookupLocked(job.hash, job.epoch)) {
      ++stats_.cache_hits;
      NoteSharedHitLocked(job.hash, job.plan_tag);
      job.slot->Fulfill(std::move(cached), /*from_cache=*/true);
      return;
    }
  }
  auto compiled = Compile(job.source, job.hash, job.epoch);
  std::lock_guard<std::mutex> lock(mu_);
  if (!compiled.ok()) {
    ++stats_.compile_errors;
    job.slot->Fail(compiled.status().ToString());
    return;
  }
  std::shared_ptr<const CompiledArtifact> artifact =
      std::move(compiled).ValueUnsafe();
  ++stats_.compiles;
  stats_.compile_seconds_total += artifact->compile_seconds();
  cache_[job.hash] = artifact;
  first_plan_tag_[job.hash] = job.plan_tag;
  stats_.cached_artifacts = cache_.size();
  job.slot->Fulfill(std::move(artifact), /*from_cache=*/false);
}

void CodegenEngine::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    Pending job = std::move(queue_.front());
    queue_.pop_front();
    ++active_jobs_;
    lock.unlock();
    ProcessOne(std::move(job));
    lock.lock();
    --active_jobs_;
    if (queue_.empty() && active_jobs_ == 0) idle_cv_.notify_all();
  }
}

CompiledFnSlotPtr CodegenEngine::Submit(std::string source,
                                        uint64_t stats_epoch,
                                        bool synchronous,
                                        uint64_t plan_tag) {
  if (!Available()) return nullptr;
  auto slot = std::make_shared<CompiledFnSlot>();
  const uint64_t hash = CgHashSource(source);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto cached = LookupLocked(hash, stats_epoch)) {
      ++stats_.cache_hits;
      NoteSharedHitLocked(hash, plan_tag);
      slot->Fulfill(std::move(cached), /*from_cache=*/true);
      return slot;
    }
  }
  if (synchronous) {
    ProcessOne(Pending{std::move(source), hash, stats_epoch, plan_tag,
                       slot});
    return slot;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      slot->Fail("codegen engine shut down");
      return slot;
    }
    queue_.push_back(
        Pending{std::move(source), hash, stats_epoch, plan_tag, slot});
    if (!worker_started_) {
      worker_started_ = true;
      worker_ = std::thread([this] { WorkerLoop(); });
    }
  }
  queue_cv_.notify_one();
  return slot;
}

void CodegenEngine::EvictStale(uint64_t current_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->second->stats_epoch() != current_epoch) {
      first_plan_tag_.erase(it->first);
      it = cache_.erase(it);
      ++stats_.artifact_evictions;
    } else {
      ++it;
    }
  }
  stats_.cached_artifacts = cache_.size();
}

bool CodegenEngine::WaitIdle(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return idle_cv_.wait_for(lock, timeout, [this] {
    return queue_.empty() && active_jobs_ == 0;
  });
}

CodegenStats CodegenEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

int CodegenEngine::ScratchFileCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (scratch_dir_.empty()) return 0;
  std::error_code ec;
  int count = 0;
  for (auto it = std::filesystem::directory_iterator(scratch_dir_, ec);
       !ec && it != std::filesystem::directory_iterator(); ++it) {
    ++count;
  }
  return count;
}

#else  // !BYPASS_CODEGEN_ENABLED — interpreter-only build: every entry
       // point degrades to "unavailable" without touching the toolchain.

CodegenEngine::~CodegenEngine() = default;

bool CodegenEngine::Available() { return false; }

CompiledFnSlotPtr CodegenEngine::Submit(std::string, uint64_t, bool,
                                        uint64_t) {
  return nullptr;
}

void CodegenEngine::EvictStale(uint64_t) {}

bool CodegenEngine::WaitIdle(std::chrono::milliseconds) { return true; }

CodegenStats CodegenEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Result<std::string> CodegenEngine::EnsureScratchDir() {
  return Status::Unsupported("codegen disabled at build time");
}

std::shared_ptr<const CompiledArtifact> CodegenEngine::LookupLocked(
    uint64_t, uint64_t) {
  return nullptr;
}

Result<std::shared_ptr<const CompiledArtifact>> CodegenEngine::Compile(
    const std::string&, uint64_t, uint64_t) {
  return Status::Unsupported("codegen disabled at build time");
}

void CodegenEngine::WorkerLoop() {}
void CodegenEngine::ProcessOne(Pending) {}
void CodegenEngine::NoteSharedHitLocked(uint64_t, uint64_t) {}

int CodegenEngine::ScratchFileCount() const { return 0; }

#endif  // BYPASS_CODEGEN_ENABLED

}  // namespace bypass
