// perfbench: the end-to-end benchmark of the Eraser campaign service.
//
//   perfbench --workload suite|thin-deep|service --seed N --seconds S
//             --trace 0|1 --workdir DIR [--setups K] [--inject-flip I]
//   perfbench --oracle --workload W --seed N --workdir DIR
//
// Drives the program only through its public calls (suite::load_design,
// CompiledDesign::build, fault::generate_faults, Session::submit/wait,
// VerdictCache, CampaignJournal, WorkerSupervisor) and times every layer
// from the outside, around those calls. Every campaign's verdict bitmap is
// checked against baseline::run_serial_campaign in event-driven mode — an
// engine with no divergence lists and no redundancy elimination — computed
// after the timed window. perfbench/README.md documents the workloads, the
// metrics and the layer each one belongs to; perfbench/run.py builds this
// binary and runs it.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. End-to-end metrics are printed with --trace 0,
// per-layer metrics with --trace 1. The end-to-end times are CPU seconds;
// the wall-clock figures are printed on a "ref wall" line. A run with a
// failed campaign or a failed property check exits 1.
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baseline/serial.h"
#include "eraser/eraser.h"
#include "eraser/journal.h"
#include "eraser/scheduler.h"
#include "eraser/supervisor.h"
#include "eraser/verdict_cache.h"
#include "suite/suite.h"
#include "util/prng.h"
#include "util/timer.h"

using namespace eraser;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Workload sizes. Changing any of these changes the benchmark: re-measure
// the spreads (run.py spread) and update BENCHMARK.json and the README.
// ---------------------------------------------------------------------------

// Faults in the High-priority probe campaign each round submits next to its
// bulk campaign (one 64-lane word).
constexpr uint32_t kProbeFaults = 64;

// thin-deep: campaigns of one 64-lane word of faults, a long epoched random
// stimulus, epoch split left to the learned cost model. Each circuit has
// kThinWords words, each with its own stimulus: a campaign's cost depends
// on how long its hardest fault stays undetected, so one word per circuit
// made the workload's cost a lottery on the seed.
constexpr uint32_t kThinFaults = 64;
constexpr uint32_t kThinWords = 4;
constexpr uint32_t kThinEpochs = 32;
constexpr uint32_t kThinEpochCycles = 100;

// service: each bulk campaign is 2 * kServiceHalf faults, the first half
// shared with the previous bulk campaign of its circuit (cache hits), the
// second half new (misses, then inserts). kServiceSteps campaigns per
// circuit make one round; the round ends by saving the store and reloading
// the base snapshot (which holds only the first half of step 0), so every
// (stimulus, fault) pair misses exactly once per round and the oracle stays
// bounded by the universe of (kServiceSteps + 1) * kServiceHalf faults.
constexpr uint32_t kServiceHalf = 256;
constexpr uint32_t kServiceSteps = 3;
constexpr uint32_t kServiceHiHalf = 64;
constexpr uint32_t kServiceLocalThreads = 2;
constexpr uint32_t kServiceWorkers = 2;
// Units per bulk campaign: one per executor (local threads + workers).
constexpr uint32_t kServiceShards = kServiceLocalThreads + kServiceWorkers;

const std::vector<std::string> kThinCircuits = {"sha256_hv", "fpu",
                                                "sha256_c2v"};
const std::vector<std::string> kServiceCircuits = {"alu", "picorv32",
                                                   "sha256_hv"};

uint64_t mix_seed(uint64_t seed, const std::string& circuit, uint64_t salt) {
    uint64_t h = 0xcbf29ce484222325ull ^ (seed * 0x9E3779B97F4A7C15ull);
    for (char ch : circuit) {
        h = (h ^ static_cast<uint8_t>(ch)) * 0x100000001b3ull;
    }
    h ^= salt * 0xD6E8FEB86659FD93ull;
    return Prng(h).next() | 1;
}

// ---------------------------------------------------------------------------
// Host probes: reference figures, not metrics.
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

double loadavg_1min() {
    double v = -1.0;
    std::istringstream(read_file("/proc/loadavg")) >> v;
    return v;
}

/// VmHWM (peak resident set) of a process in MB; -1 when unreadable.
double peak_rss_mb(const std::string& pid) {
    const std::string status = read_file("/proc/" + pid + "/status");
    const size_t at = status.find("VmHWM:");
    if (at == std::string::npos) return -1.0;
    return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;
}

// ---------------------------------------------------------------------------
// CPU clocks. The end-to-end times are CPU seconds, not wall seconds: on a
// shared host the vCPUs are preempted by other tenants (steal), and wall
// time counts those pauses while the task clocks below do not.
// ---------------------------------------------------------------------------

/// CPU seconds of this process, summed over all its threads.
double self_cpu_s() {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU seconds of another process: the sum of its live threads' run time
/// from /proc/<pid>/task/*/schedstat (nanoseconds; /proc/<pid>/stat
/// counts in 10 ms ticks, too coarse for a set-up). Time of threads that
/// have exited is lost; the workers keep one thread per connection for
/// the life of the connection.
double proc_cpu_s(pid_t pid) {
    double ns = 0.0;
    std::error_code ec;
    const fs::path tasks = "/proc/" + std::to_string(pid) + "/task";
    for (const auto& e : fs::directory_iterator(tasks, ec)) {
        double run_ns = 0.0;
        std::istringstream(read_file((e.path() / "schedstat").string())) >>
            run_ns;
        ns += run_ns;
    }
    return ns * 1e-9;
}

/// Time of a fixed memory-bound loop (8 sequential passes over 64 MB, one
/// load per cache line), run in a forked child so its pages never count
/// toward this process's peak RSS. The child touches only mmap'd memory.
double memory_probe_ms() {
    int fds[2];
    if (::pipe(fds) != 0) return -1.0;
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return -1.0;
    }
    if (pid == 0) {
        ::close(fds[0]);
        constexpr size_t kBytes = size_t{64} << 20;
        void* mem = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (mem == MAP_FAILED) ::_exit(1);
        auto* words = static_cast<volatile uint64_t*>(mem);
        const size_t n = kBytes / sizeof(uint64_t);
        for (size_t i = 0; i < n; i += 8) words[i] = i;
        const auto t0 = std::chrono::steady_clock::now();
        uint64_t sum = 0;
        for (int pass = 0; pass < 8; ++pass) {
            for (size_t i = 0; i < n; i += 8) sum += words[i];
        }
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        if (sum == 1) ms += 1e-12;   // keep the loop observable
        const ssize_t w = ::write(fds[1], &ms, sizeof(ms));
        ::_exit(w == sizeof(ms) ? 0 : 1);
    }
    ::close(fds[1]);
    double ms = -1.0;
    if (::read(fds[0], &ms, sizeof(ms)) != sizeof(ms)) ms = -1.0;
    ::close(fds[0]);
    ::waitpid(pid, nullptr, 0);
    return ms;
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Workload model.
// ---------------------------------------------------------------------------

/// A universe of faults under one stimulus, with its serial-engine oracle.
/// Campaigns submit contiguous ranges of `faults`.
struct FaultSet {
    std::string name;
    size_t circuit = 0;
    std::vector<fault::Fault> faults;
    core::StimulusFactory factory;
    std::optional<core::StimulusSpec> spec;   // service: cache/journal/fleet
    uint32_t cycles = 0;                      // nominal cycles per verdict
    uint32_t epochs = 1;
    std::vector<bool> oracle;
    double oracle_serial_s = 0.0;             // summed serial-engine time
    double good_pass_s = 0.0;                 // one timed good-machine pass
};

struct Circuit {
    const suite::Benchmark* bench = nullptr;
    std::unique_ptr<rtl::Design> design;
    std::shared_ptr<const core::CompiledDesign> compiled;
    std::unique_ptr<core::Session> session;   // destroyed before the design
};

/// One bulk (Normal) + one probe (High) campaign on one circuit.
struct Step {
    size_t circuit = 0;
    size_t bulk_set = 0;
    uint32_t bulk_begin = 0, bulk_len = 0;
    size_t hi_set = 0;
    uint32_t hi_begin = 0, hi_len = 0;
};

struct CampaignRec {
    size_t set = 0;
    uint32_t begin = 0, len = 0;
    bool high = false;
    bool traced = false;
    double submit_s = 0.0;    // duration of the submit() call
    double latency_s = 0.0;   // submit() start -> wait() return
    core::CampaignResult result;
};

struct SetupTimes {
    double total = 0.0;   // wall seconds
    double cpu = 0.0;     // CPU seconds of the client and its workers
    double frontend = 0.0;
    double build = 0.0;
    double faults = 0.0;
    double supervisor = 0.0;
};

struct Workload {
    std::string kind;
    uint32_t executors = 1;   // busy threads the workload may use
    std::vector<Circuit> circuits;
    std::vector<FaultSet> sets;
    std::vector<Step> round;  // one round = these steps, in order

    // service only
    std::unique_ptr<core::WorkerSupervisor> fleet;
    std::shared_ptr<core::VerdictCache> cache;
    std::shared_ptr<core::CampaignJournal> journal;
    fs::path base_store;

    ~Workload() {
        // Sessions drain and join before the fleet they talk to stops.
        for (Circuit& c : circuits) c.session.reset();
        if (fleet) fleet->stop_fleet(2000);
    }
};

/// CPU seconds of the whole system under test: this process plus, for
/// service, the fleet's worker processes.
double system_cpu_s(const Workload& w) {
    double cpu = self_cpu_s();
    if (w.fleet) {
        for (size_t i = 0; i < kServiceWorkers; ++i) {
            const pid_t pid = w.fleet->pid(i);
            if (pid > 0) cpu += proc_cpu_s(pid);
        }
    }
    return cpu;
}

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    fs::path workdir;
    uint32_t setups = 11;
    long inject_flip = -1;
    bool oracle_only = false;
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "suite|thin-deep|service --seed N --seconds S --trace 0|1 "
                 "--workdir DIR [--setups K] [--inject-flip I] [--oracle]\n",
                 why);
    std::exit(2);
}

uint64_t parse_u64(const char* s, const char* flag) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-') {
        usage((std::string("bad value for ") + flag).c_str());
    }
    return v;
}

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string f = argv[i];
        if (f == "--oracle") {
            a.oracle_only = true;
            continue;
        }
        if (i + 1 >= argc) usage(("missing value for " + f).c_str());
        const char* v = argv[++i];
        if (f == "--workload") {
            a.workload = v;
        } else if (f == "--seed") {
            a.seed = parse_u64(v, "--seed");
        } else if (f == "--seconds") {
            a.seconds = static_cast<double>(parse_u64(v, "--seconds"));
        } else if (f == "--trace") {
            const uint64_t t = parse_u64(v, "--trace");
            if (t > 1) usage("--trace takes 0 or 1");
            a.trace = t == 1;
        } else if (f == "--workdir") {
            a.workdir = v;
        } else if (f == "--setups") {
            a.setups = static_cast<uint32_t>(parse_u64(v, "--setups"));
        } else if (f == "--inject-flip") {
            a.inject_flip = static_cast<long>(parse_u64(v, "--inject-flip"));
        } else {
            usage(("unknown flag " + f).c_str());
        }
    }
    if (a.workload != "suite" && a.workload != "thin-deep" &&
        a.workload != "service") {
        usage("--workload must be suite, thin-deep or service");
    }
    if (a.seconds <= 0.0) usage("--seconds must be positive");
    if (a.setups == 0) usage("--setups must be positive");
    if (a.workdir.empty()) usage("--workdir is required");
    return a;
}

uint32_t host_threads() {
    return std::max(1u, std::thread::hardware_concurrency());
}

/// Loads, compiles and registers one circuit (timed into `t`).
size_t add_circuit(Workload& w, const std::string& name, SetupTimes& t) {
    Circuit c;
    c.bench = &suite::find_benchmark(name);
    Stopwatch sw;
    c.design = suite::load_design(*c.bench);
    t.frontend += sw.seconds();
    sw.reset();
    c.compiled = core::CompiledDesign::build(*c.design);
    t.build += sw.seconds();
    w.circuits.push_back(std::move(c));
    return w.circuits.size() - 1;
}

std::vector<fault::Fault> gen_faults(const Circuit& c, uint32_t sample,
                                     uint64_t seed, SetupTimes& t) {
    Stopwatch sw;
    fault::FaultGenOptions opts;
    opts.sample_max = sample;
    opts.sample_seed = seed;
    auto faults = fault::generate_faults(*c.design, opts);
    t.faults += sw.seconds();
    return faults;
}

size_t add_suite_set(Workload& w, size_t ci, const std::string& role,
                     std::vector<fault::Fault> faults, uint32_t cycles) {
    const suite::Benchmark* b = w.circuits[ci].bench;
    FaultSet s;
    s.name = b->name + "/" + role;
    s.circuit = ci;
    s.faults = std::move(faults);
    s.factory = [b, cycles] { return suite::make_stimulus(*b, cycles); };
    s.cycles = cycles;
    w.sets.push_back(std::move(s));
    return w.sets.size() - 1;
}

int64_t now_ns() {
    return std::chrono::steady_clock::now().time_since_epoch().count();
}

/// Submits one campaign; `done_ns` receives the steady-clock time of the
/// campaign's terminal event.
core::CampaignHandle submit(Workload& w, const FaultSet& s, uint32_t begin,
                            uint32_t len, const core::CampaignOptions& opts,
                            std::shared_ptr<std::atomic<int64_t>> done_ns) {
    core::Session& session = *w.circuits[s.circuit].session;
    const std::span<const fault::Fault> faults(s.faults.data() + begin, len);
    core::ShardObserver obs = [done_ns](const core::ShardEvent& e) {
        if (e.terminal) done_ns->store(now_ns(), std::memory_order_release);
    };
    if (s.spec) return session.submit(faults, *s.spec, opts, obs);
    return session.submit(faults, s.factory, opts, obs);
}

/// Runs one step: bulk (Normal) then probe (High) submitted back to back,
/// waited probe first. A campaign that finished before the client reached
/// its wait() is timed to its terminal event instead.
void run_step(Workload& w, const Step& st, bool traced,
              std::vector<CampaignRec>& out) {
    core::CampaignOptions bulk_opts;
    bulk_opts.engine.time_phases = traced;
    if (w.kind == "service") bulk_opts.num_shards = kServiceShards;
    core::CampaignOptions hi_opts = bulk_opts;
    hi_opts.priority = core::Priority::High;

    CampaignRec bulk, hi;
    bulk.set = st.bulk_set;
    bulk.begin = st.bulk_begin;
    bulk.len = st.bulk_len;
    hi.set = st.hi_set;
    hi.begin = st.hi_begin;
    hi.len = st.hi_len;
    hi.high = true;
    bulk.traced = hi.traced = traced;

    auto bulk_done = std::make_shared<std::atomic<int64_t>>(0);
    auto hi_done = std::make_shared<std::atomic<int64_t>>(0);
    const int64_t t_bulk = now_ns();
    core::CampaignHandle hb = submit(w, w.sets[st.bulk_set], st.bulk_begin,
                                     st.bulk_len, bulk_opts, bulk_done);
    const int64_t t_hi = now_ns();
    bulk.submit_s = static_cast<double>(t_hi - t_bulk) * 1e-9;
    core::CampaignHandle hh = submit(w, w.sets[st.hi_set], st.hi_begin,
                                     st.hi_len, hi_opts, hi_done);
    hi.submit_s = static_cast<double>(now_ns() - t_hi) * 1e-9;

    const auto finish = [](core::CampaignHandle& h, CampaignRec& rec,
                           int64_t start,
                           const std::atomic<int64_t>& done) {
        const bool early = h.finished();
        rec.result = h.wait();
        const int64_t end =
            early ? done.load(std::memory_order_acquire) : now_ns();
        rec.latency_s = static_cast<double>(end - start) * 1e-9;
    };
    finish(hh, hi, t_hi, *hi_done);
    finish(hb, bulk, t_bulk, *bulk_done);
    out.push_back(std::move(bulk));
    out.push_back(std::move(hi));
}

// ---------------------------------------------------------------------------
// Set-up of each workload.
// ---------------------------------------------------------------------------

/// Starts circuit `ci`'s Session on the workload's threads.
void start_local_session(Workload& w, size_t ci) {
    core::SessionOptions so;
    so.num_threads = w.executors;
    w.circuits[ci].session =
        std::make_unique<core::Session>(w.circuits[ci].compiled, so);
}

/// Adds a step of circuit `ci`: the whole bulk set, then the whole probe
/// set.
void add_whole_step(Workload& w, size_t ci, size_t bulk, size_t probe) {
    w.round.push_back(
        Step{ci, bulk, 0, static_cast<uint32_t>(w.sets[bulk].faults.size()),
             probe, 0, static_cast<uint32_t>(w.sets[probe].faults.size())});
}

/// Fisher-Yates shuffle driven by `seed`.
void shuffle(std::vector<fault::Fault>& faults, uint64_t seed) {
    Prng rng(seed);
    for (size_t i = faults.size(); i > 1; --i) {
        std::swap(faults[i - 1], faults[rng.below(i)]);
    }
}

void setup_suite(Workload& w, uint64_t seed, SetupTimes& t) {
    w.executors = host_threads();
    for (const suite::Benchmark& b : suite::registry()) {
        const size_t ci = add_circuit(w, b.name, t);
        Circuit& c = w.circuits[ci];
        const size_t bulk = add_suite_set(
            w, ci, "bulk", gen_faults(c, b.fault_sample,
                                      mix_seed(seed, b.name, 1), t),
            b.cycles);
        const size_t probe = add_suite_set(
            w, ci, "probe", gen_faults(c, kProbeFaults,
                                       mix_seed(seed, b.name, 2), t),
            b.test_cycles);
        start_local_session(w, ci);
        add_whole_step(w, ci, bulk, probe);
    }
}

/// thin-deep: every circuit's words come from one fixed universe of
/// kThinWords * kThinFaults faults; the seed shuffles the universe into
/// words and draws each word's random stimulus. A round runs word k of
/// every circuit before word k + 1.
void setup_thin_deep(Workload& w, uint64_t seed, SetupTimes& t) {
    w.executors = host_threads();
    std::vector<std::vector<size_t>> words;   // per circuit
    std::vector<size_t> probes;
    for (const std::string& name : kThinCircuits) {
        const size_t ci = add_circuit(w, name, t);
        Circuit& c = w.circuits[ci];
        const suite::Benchmark* b = c.bench;
        std::vector<fault::Fault> universe =
            gen_faults(c, kThinWords * kThinFaults, mix_seed(0, name, 3), t);
        shuffle(universe, mix_seed(seed, name, 3));
        words.emplace_back();
        for (uint32_t k = 0; k < kThinWords; ++k) {
            FaultSet s;
            s.name = name + "/bulk" + std::to_string(k);
            s.circuit = ci;
            const auto first = universe.begin() + k * kThinFaults;
            s.faults.assign(first, std::min(first + kThinFaults,
                                             universe.end()));
            suite::RandomStimulus::Config cfg;
            cfg.reset = "rst";
            cfg.reset_active_high = true;
            cfg.cycles = kThinEpochs * kThinEpochCycles;
            cfg.seed = mix_seed(seed, name, 4 + 16 * k);
            if (name == "fpu") cfg.constants.emplace_back("valid_in", 1);
            s.factory = [cfg] {
                return std::make_unique<suite::EpochRandomStimulus>(
                    cfg, kThinEpochs);
            };
            s.cycles = cfg.cycles;
            s.epochs = kThinEpochs;
            w.sets.push_back(std::move(s));
            words.back().push_back(w.sets.size() - 1);
        }
        probes.push_back(add_suite_set(
            w, ci, "probe",
            gen_faults(c, kProbeFaults, mix_seed(seed, name, 5), t),
            b->test_cycles));
        start_local_session(w, ci);
    }
    for (uint32_t k = 0; k < kThinWords; ++k) {
        for (size_t ci = 0; ci < w.circuits.size(); ++ci) {
            add_whole_step(w, ci, words[ci][k], probes[ci]);
        }
    }
}

void setup_service(Workload& w, uint64_t seed, const fs::path& dir,
                   SetupTimes& t) {
    w.executors = kServiceShards;
    fs::remove_all(dir);
    fs::create_directories(dir);

    Stopwatch sw;
    core::SupervisorOptions supo;
    supo.binary = PERFBENCH_WORKER_BIN;
    supo.workers = kServiceWorkers;
    w.fleet = std::make_unique<core::WorkerSupervisor>(supo);
    w.fleet->start();
    t.supervisor = sw.seconds();

    core::VerdictCacheOptions co;
    co.store_path = (dir / "store.bin").string();
    w.cache = std::make_shared<core::VerdictCache>(co);
    core::JournalOptions jo;
    jo.path = (dir / "journal.wal").string();
    w.journal = std::make_shared<core::CampaignJournal>(jo);
    w.base_store = dir / "base.bin";

    const uint32_t universe = (kServiceSteps + 1) * kServiceHalf;
    const uint32_t hi_universe = (kServiceSteps + 1) * kServiceHiHalf;
    std::vector<std::pair<size_t, size_t>> sets;   // (bulk, hi) per circuit
    for (const std::string& name : kServiceCircuits) {
        const size_t ci = add_circuit(w, name, t);
        Circuit& c = w.circuits[ci];
        const suite::Benchmark* b = c.bench;
        // The bulk and probe universes are fixed parts of the circuit's
        // fault list; the seed sets the order in which the windows walk
        // them. With seeded universes the cost of a round followed the
        // few expensive faults a seed happened to draw.
        std::vector<fault::Fault> all = gen_faults(c, 0, 0, t);
        shuffle(all, mix_seed(0, name, 6));
        if (all.size() < universe + hi_universe) {
            throw std::runtime_error(name + " has too few faults for the "
                                            "service universes");
        }
        std::vector<fault::Fault> bulk_faults(all.begin(),
                                              all.begin() + universe);
        std::vector<fault::Fault> hi_faults(
            all.begin() + universe, all.begin() + universe + hi_universe);
        shuffle(bulk_faults, mix_seed(seed, name, 6));
        shuffle(hi_faults, mix_seed(seed, name, 7));
        const size_t bulk =
            add_suite_set(w, ci, "bulk", std::move(bulk_faults), b->cycles);
        w.sets[bulk].spec = suite::remote_stimulus(*b, b->cycles);
        const size_t hi = add_suite_set(w, ci, "probe", std::move(hi_faults),
                                        b->test_cycles);
        w.sets[hi].spec = suite::remote_stimulus(*b, b->test_cycles);
        sets.emplace_back(bulk, hi);

        core::SessionOptions so;
        so.num_threads = kServiceLocalThreads;
        so.scheduler.remote.workers = w.fleet->ports();
        so.scheduler.remote.design = suite::design_spec(*b);
        so.scheduler.verdict_cache = w.cache;
        so.scheduler.journal = w.journal;
        c.session = std::make_unique<core::Session>(c.compiled, so);
    }
    // Round: kServiceSteps sliding windows per circuit, circuits
    // interleaved.
    for (uint32_t k = 0; k < kServiceSteps; ++k) {
        for (size_t ci = 0; ci < w.circuits.size(); ++ci) {
            w.round.push_back(Step{ci, sets[ci].first, k * kServiceHalf,
                                   2 * kServiceHalf, sets[ci].second,
                                   k * kServiceHiHalf, 2 * kServiceHiHalf});
        }
    }
}

/// The warm-up before the timed window: one round (suite, thin-deep) or
/// the first half-window of every universe, saved as the base snapshot
/// every service round restarts from.
void warm_up(Workload& w) {
    std::vector<CampaignRec> scratch;
    if (w.kind != "service") {
        for (const Step& st : w.round) run_step(w, st, false, scratch);
        return;
    }
    for (size_t ci = 0; ci < w.circuits.size(); ++ci) {
        const Step& st = w.round[ci];
        Step half = st;
        half.bulk_len = kServiceHalf;
        half.hi_len = kServiceHiHalf;
        run_step(w, half, false, scratch);
    }
    if (!w.cache->save(w.base_store.string())) {
        throw std::runtime_error("cannot save the base verdict store");
    }
}

std::unique_ptr<Workload> set_up(const Args& a, uint32_t index,
                                 SetupTimes& t) {
    t = SetupTimes{};
    Stopwatch sw;
    const double cpu0 = self_cpu_s();   // the workers start in here
    auto w = std::make_unique<Workload>();
    w->kind = a.workload;
    if (a.workload == "suite") {
        setup_suite(*w, a.seed, t);
    } else if (a.workload == "thin-deep") {
        setup_thin_deep(*w, a.seed, t);
    } else {
        setup_service(*w, a.seed, a.workdir / ("setup-" +
                                               std::to_string(index)),
                      t);
    }
    warm_up(*w);
    t.total = sw.seconds();
    t.cpu = system_cpu_s(*w) - cpu0;
    return w;
}

// ---------------------------------------------------------------------------
// Oracle and property checks (outside the timed window).
// ---------------------------------------------------------------------------

/// Runs `jobs` on up to `threads` threads.
void run_parallel(std::vector<std::function<void()>>& jobs,
                  uint32_t threads) {
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    std::exception_ptr error;
    std::mutex error_mu;
    for (uint32_t i = 0; i < std::min<size_t>(threads, jobs.size()); ++i) {
        pool.emplace_back([&] {
            for (size_t j = next++; j < jobs.size(); j = next++) {
                try {
                    jobs[j]();
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mu);
                    if (!error) error = std::current_exception();
                }
            }
        });
    }
    for (std::thread& th : pool) th.join();
    if (error) std::rethrow_exception(error);
}

/// Fills every FaultSet's oracle from the serial event-driven engine:
/// flat sets in chunks of 64 faults, epoched sets as the OR over
/// single-epoch EpochWindowStimulus runs.
void compute_oracles(Workload& w) {
    struct Chunk {
        size_t set;
        uint32_t begin, end;
        uint32_t epoch;   // UINT32_MAX = whole stimulus
        std::vector<bool> detected;
        double seconds = 0.0;
    };
    std::vector<Chunk> chunks;
    for (size_t si = 0; si < w.sets.size(); ++si) {
        const FaultSet& s = w.sets[si];
        const uint32_t n = static_cast<uint32_t>(s.faults.size());
        if (s.epochs > 1) {
            for (uint32_t e = 0; e < s.epochs; ++e) {
                chunks.push_back(Chunk{si, 0, n, e, {}, 0.0});
            }
        } else {
            for (uint32_t b = 0; b < n; b += 64) {
                chunks.push_back(
                    Chunk{si, b, std::min(n, b + 64), UINT32_MAX, {}, 0.0});
            }
        }
    }
    std::vector<std::function<void()>> jobs;
    for (Chunk& ch : chunks) {
        jobs.push_back([&w, &ch] {
            const FaultSet& s = w.sets[ch.set];
            std::unique_ptr<sim::Stimulus> stim = s.factory();
            if (ch.epoch != UINT32_MAX) {
                stim = std::make_unique<sim::EpochWindowStimulus>(
                    std::move(stim), ch.epoch, ch.epoch + 1);
            }
            baseline::SerialOptions so;
            so.mode = sim::SchedulingMode::EventDriven;
            const std::span<const fault::Fault> faults(
                s.faults.data() + ch.begin, ch.end - ch.begin);
            const baseline::SerialResult r = baseline::run_serial_campaign(
                *w.circuits[s.circuit].compiled, faults, *stim, so);
            ch.detected = r.detected;
            ch.seconds = r.seconds;
        });
    }
    run_parallel(jobs, host_threads());
    for (FaultSet& s : w.sets) {
        s.oracle.assign(s.faults.size(), false);
        s.oracle_serial_s = 0.0;
    }
    for (const Chunk& ch : chunks) {
        FaultSet& s = w.sets[ch.set];
        for (uint32_t i = ch.begin; i < ch.end; ++i) {
            if (ch.detected[i - ch.begin]) s.oracle[i] = true;
        }
        s.oracle_serial_s += ch.seconds;
    }
}

bool matches_oracle(const FaultSet& s, uint32_t begin,
                    const std::vector<bool>& detected) {
    if (begin + detected.size() > s.oracle.size()) return false;
    return std::equal(detected.begin(), detected.end(),
                      s.oracle.begin() + begin);
}

bool bn_accounting_holds(const core::Instrumentation& st) {
    return st.bn_executed + st.bn_skipped_explicit + st.bn_skipped_implicit ==
           st.bn_candidates;
}

/// The per-campaign check: verdicts equal the oracle, the campaign was not
/// canceled, and the behavioral-node accounting adds up.
bool campaign_ok(const Workload& w, const CampaignRec& r) {
    const FaultSet& s = w.sets[r.set];
    return !r.result.canceled && r.result.detected.size() == r.len &&
           matches_oracle(s, r.begin, r.result.detected) &&
           bn_accounting_holds(r.result.stats);
}

uint64_t fault_key(const fault::Fault& f) {
    return (static_cast<uint64_t>(f.sig) << 8) | (f.bit << 1) |
           (f.stuck_one ? 1 : 0);
}

/// One audit-mode pass per circuit on its probe set: the implicit skips of
/// Algorithm 1 are cross-checked by shadow execution, and the audit-mode
/// verdicts must equal the oracle.
void audit_circuits(Workload& w, std::vector<std::string>& problems) {
    std::vector<size_t> probe_of(w.circuits.size());
    for (const Step& st : w.round) probe_of[st.circuit] = st.hi_set;
    std::vector<std::string> audit_problems(w.circuits.size());
    std::vector<std::function<void()>> jobs;
    for (size_t ci = 0; ci < w.circuits.size(); ++ci) {
        jobs.push_back([&, ci] {
            const FaultSet& s = w.sets[probe_of[ci]];
            core::Session session(w.circuits[ci].compiled);
            core::CampaignOptions o;
            o.engine.audit = true;
            auto stim = s.factory();
            const core::CampaignResult r =
                session.run(s.faults, *stim, o);
            if (r.stats.audit_soundness_violations != 0) {
                audit_problems[ci] =
                    s.name + ": " +
                    std::to_string(
                        r.stats.audit_soundness_violations) +
                    " audit soundness violations";
            } else if (r.detected != s.oracle) {
                audit_problems[ci] =
                    s.name + ": audit-mode verdicts differ from the "
                             "oracle";
            }
        });
    }
    run_parallel(jobs, host_threads());
    for (const std::string& p : audit_problems) {
        if (!p.empty()) problems.push_back(p);
    }
}

/// Service checks: every verdict replayed from the journal equals the
/// oracle, and at least one unit ran on the fleet (otherwise "fleet
/// verdicts equal local verdicts" would hold vacuously). Returns the
/// replay's duration.
double check_service(Workload& w, const std::vector<CampaignRec>& recs,
                     std::vector<std::string>& problems) {
    w.journal->flush();
    Stopwatch sw;
    const auto replayed =
        core::CampaignJournal::replay(w.journal->path());
    const double replay_s = sw.seconds();
    std::map<std::pair<uint64_t, std::string>, size_t> by_context;
    std::vector<std::unordered_map<uint64_t, uint32_t>> index(
        w.sets.size());
    for (size_t si = 0; si < w.sets.size(); ++si) {
        const FaultSet& s = w.sets[si];
        const auto& p = s.spec->payload;
        by_context[{w.circuits[s.circuit].compiled->design_hash(),
                    std::string(p.begin(), p.end())}] = si;
        for (uint32_t i = 0; i < s.faults.size(); ++i) {
            index[si][fault_key(s.faults[i])] = i;
        }
    }
    uint64_t checked = 0;
    for (const core::JournalCampaign& jc : replayed) {
        const auto it = by_context.find(
            {jc.design_hash, std::string(jc.stimulus.payload.begin(),
                                         jc.stimulus.payload.end())});
        if (it == by_context.end()) {
            problems.push_back("journal holds an unknown campaign");
            continue;
        }
        const FaultSet& s = w.sets[it->second];
        for (size_t i = 0; i < jc.faults.size(); ++i) {
            if (!jc.unit_done[i]) continue;
            const auto f = index[it->second].find(
                fault_key(jc.faults[i]));
            if (f == index[it->second].end() ||
                s.oracle[f->second] != jc.verdicts[i]) {
                problems.push_back(
                    "journal-replayed verdict differs from the "
                    "oracle (" + s.name + ")");
                break;
            }
            ++checked;
        }
    }
    if (checked == 0) problems.push_back("journal replay was empty");
    // The fleet check is vacuous unless units ran out of process.
    const bool any_remote = std::any_of(
        recs.begin(), recs.end(), [](const CampaignRec& r) {
            return std::any_of(r.result.stats.shards.begin(),
                               r.result.stats.shards.end(),
                               [](const core::ShardBreakdown& b) {
                                   return b.remote;
                               });
        });
    if (!any_remote) problems.push_back("the fleet ran no units");
    return replay_s;
}

// ---------------------------------------------------------------------------
// One run.
// ---------------------------------------------------------------------------

/// One benchmark run; returns the process exit code.
int run(const Args& args) {
    const double probe_start_ms = memory_probe_ms();
    const double load_start = loadavg_1min();
    std::vector<std::string> problems;   // failed property checks
    fs::create_directories(args.workdir);

    // --- set-up: repeated fresh set-ups, median reported --------------
    std::vector<SetupTimes> setups;
    std::unique_ptr<Workload> w;
    for (uint32_t i = 0; i < (args.oracle_only ? 1 : args.setups); ++i) {
        w.reset();   // the previous set-up is torn down first
        SetupTimes t;
        w = set_up(args, i, t);
        setups.push_back(t);
    }
    const auto median_of = [&](double SetupTimes::*field) {
        std::vector<double> v;
        for (const SetupTimes& t : setups) v.push_back(t.*field);
        return quantile(v, 0.5);
    };

    if (args.oracle_only) {
        compute_oracles(*w);
        for (const FaultSet& s : w->sets) {
            uint64_t digest = 0xcbf29ce484222325ull;
            uint32_t detected = 0;
            for (bool bit : s.oracle) {
                digest = (digest ^ (bit ? 1u : 0u)) * 0x100000001b3ull;
                detected += bit ? 1 : 0;
            }
            std::printf("oracle %s faults=%zu detected=%u serial_s=%.3f "
                        "digest=%016llx\n",
                        s.name.c_str(), s.faults.size(), detected,
                        s.oracle_serial_s,
                        static_cast<unsigned long long>(digest));
        }
        return 0;
    }

    // --- timed window --------------------------------------------------
    struct RoundRec {
        bool traced = false;
        double seconds = 0.0;
        double work = 0.0;   // fault-cycles delivered
    };
    std::vector<RoundRec> rounds;
    std::vector<CampaignRec> recs;
    std::vector<double> save_s, load_s;
    const core::CacheStats cache0 =
        w->cache ? w->cache->stats() : core::CacheStats{};
    const core::JournalStats journal0 =
        w->journal ? w->journal->stats() : core::JournalStats{};
    const uint64_t journal_bytes0 =
        w->journal ? fs::file_size(w->journal->path()) : 0;
    uint64_t redispatch0 = 0;
    for (Circuit& c : w->circuits) {
        if (w->kind == "service") {
            redispatch0 +=
                c.session->scheduler().stats().remote.units_redispatched;
        }
    }

    const double cpu_start = system_cpu_s(*w);
    Stopwatch window;
    do {
        RoundRec rr;
        rr.traced = args.trace && rounds.size() % 2 == 0;
        const size_t first = recs.size();
        Stopwatch rsw;
        for (const Step& st : w->round) run_step(*w, st, rr.traced, recs);
        if (w->kind == "service") {
            Stopwatch io;
            if (!w->cache->flush()) {
                problems.push_back("verdict store save failed");
            }
            save_s.push_back(io.seconds());
            io.reset();
            if (!w->cache->load(w->base_store.string())) {
                problems.push_back("base verdict store load failed");
            }
            load_s.push_back(io.seconds());
        }
        rr.seconds = rsw.seconds();
        for (size_t i = first; i < recs.size(); ++i) {
            rr.work += static_cast<double>(recs[i].len) *
                       w->sets[recs[i].set].cycles;
        }
        rounds.push_back(rr);
    } while (window.seconds() < args.seconds);
    const double window_s = window.seconds();
    const double window_cpu_s = system_cpu_s(*w) - cpu_start;
    const double rss_mb = peak_rss_mb("self");

    // --- counters read at the end of the window ------------------------
    const core::CacheStats cache1 =
        w->cache ? w->cache->stats() : core::CacheStats{};
    const core::JournalStats journal1 =
        w->journal ? w->journal->stats() : core::JournalStats{};
    if (w->journal) w->journal->flush();
    const uint64_t journal_bytes1 =
        w->journal ? fs::file_size(w->journal->path()) : 0;
    uint64_t redispatches = 0;
    double worker_rss = 0.0;
    if (w->kind == "service") {
        for (Circuit& c : w->circuits) {
            redispatches +=
                c.session->scheduler().stats().remote.units_redispatched;
        }
        redispatches -= redispatch0;
        for (size_t i = 0; i < kServiceWorkers; ++i) {
            const pid_t pid = w->fleet->pid(i);
            if (pid > 0) {
                worker_rss = std::max(
                    worker_rss, peak_rss_mb(std::to_string(pid)));
            }
        }
    }

    // --- oracle, audit and property checks ------------------------------
    compute_oracles(*w);
    if (args.inject_flip >= 0 &&
        static_cast<size_t>(args.inject_flip) < recs.size()) {
        auto& d = recs[static_cast<size_t>(args.inject_flip)].result.detected;
        if (!d.empty()) d[0] = !d[0];
    }
    uint64_t failed = 0;
    for (const CampaignRec& r : recs) {
        if (!campaign_ok(*w, r)) ++failed;
    }
    // Checker self-test: one flipped bit must fail the check.
    {
        CampaignRec flipped = recs.front();
        if (!flipped.result.detected.empty()) {
            flipped.result.detected[0] = !flipped.result.detected[0];
        }
        if (campaign_ok(*w, flipped)) {
            problems.push_back("checker accepted a flipped verdict");
        }
    }
    // Non-vacuous: the workload's bulk faults include detected and
    // undetected ones.
    {
        uint64_t det = 0, undet = 0;
        for (const Step& st : w->round) {
            for (bool bit : w->sets[st.bulk_set].oracle) {
                (bit ? det : undet) += 1;
            }
        }
        if (det == 0 || undet == 0) {
            problems.push_back("vacuous oracle: detected=" +
                               std::to_string(det) + " undetected=" +
                               std::to_string(undet));
        }
    }
    audit_circuits(*w, problems);
    double replay_s = 0.0;
    if (w->journal) replay_s = check_service(*w, recs, problems);

    // --- aggregation ------------------------------------------------------
    // Latency figures: each circuit's median, then the geometric mean
    // over circuits, so every circuit weighs the same and the figure
    // does not jump from one circuit to another when a circuit's
    // latency crosses the mixture's median.
    std::vector<double> bulk_lat, hi_lat;
    std::map<std::pair<bool, size_t>, std::vector<double>> lat_by_set;
    for (const CampaignRec& r : recs) {
        (r.high ? hi_lat : bulk_lat).push_back(r.latency_s);
        lat_by_set[{r.high, r.set}].push_back(r.latency_s);
    }
    const auto geomean_p50 = [&](bool high) {
        double log_sum = 0.0;
        double n = 0.0;
        for (const auto& [key, lat] : lat_by_set) {
            if (key.first != high) continue;
            log_sum += std::log(quantile(lat, 0.5));
            n += 1.0;
        }
        return n == 0.0 ? 0.0 : std::exp(log_sum / n);
    };
    double work = 0.0;
    for (const RoundRec& rr : rounds) work += rr.work;
    const double sim_rate = work / window_s;

    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
    const auto put = [&](const std::string& n, double v,
                         const std::string& u) {
        metrics.push_back(Metric{n, v, u});
    };
    const double n_rounds = static_cast<double>(rounds.size());

    const double load_end = loadavg_1min();
    // The end probe runs once every worker process is gone.
    const size_t rounds_total = rounds.size();
    const uint64_t attempted = recs.size();

    if (!args.trace) {
        put("sim_rate_cpu", work / window_cpu_s, "fault-cyc/cpu-s");
        put("peak_rss_mb", rss_mb, "MB");
        put("setup_s", median_of(&SetupTimes::cpu), "s");
        double units = 0.0, windows = 0.0;
        for (const CampaignRec& r : recs) {
            if (r.high) continue;
            std::set<std::pair<uint32_t, uint32_t>> wins;
            for (const core::ShardBreakdown& b : r.result.stats.shards) {
                wins.insert({b.epoch_begin, b.epoch_end});
            }
            units += static_cast<double>(r.result.stats.shards.size());
            windows += static_cast<double>(wins.size());
        }
        // Wall-clock figures: what a user waits for, but on a shared host
        // they move with the neighbours' load, so they are not metrics.
        std::printf("ref wall sim_rate=%.6g campaign_s.p50=%.6f "
                    "hi_campaign_s.p50=%.6f setup_s=%.6f cpu_busy=%.3f\n",
                    sim_rate, geomean_p50(false), geomean_p50(true),
                    median_of(&SetupTimes::total),
                    ratio(window_cpu_s, window_s));
        std::printf("ref campaign_s.p90=%.6f n=%zu hi_campaign_s.p90=%.6f "
                    "n=%zu rounds=%zu window_s=%.3f units/bulk=%.3f "
                    "epoch_windows/bulk=%.3f\n",
                    quantile(bulk_lat, 0.9), bulk_lat.size(),
                    quantile(hi_lat, 0.9), hi_lat.size(), rounds_total,
                    window_s, ratio(units, bulk_lat.size()),
                    ratio(windows, bulk_lat.size()));
    } else {
        // Per-layer ledger over the traced (even) rounds; the untraced
        // rounds between them give the tracing overhead.
        double traced_s = 0.0, traced_work = 0.0, plain_s = 0.0,
               plain_work = 0.0;
        double n_traced = 0.0;
        for (const RoundRec& rr : rounds) {
            if (rr.traced) {
                traced_s += rr.seconds;
                traced_work += rr.work;
                n_traced += 1.0;
            } else {
                plain_s += rr.seconds;
                plain_work += rr.work;
            }
        }
        // One timed good-machine pass of every fault set's stimulus.
        for (FaultSet& s : w->sets) {
            auto stim = s.factory();
            Stopwatch sw;
            (void)baseline::record_good_trace(
                *w->circuits[s.circuit].compiled, *stim,
                sim::SchedulingMode::EventDriven);
            s.good_pass_s = sw.seconds();
        }
        core::Instrumentation sum;
        double unit_wall = 0.0, stim_blocked = 0.0, queue = 0.0,
               hi_queue = 0.0, rtt = 0.0, good_est = 0.0,
               good_replays = 0.0, submit_s = 0.0, windows = 0.0;
        double units = 0.0, hi_units = 0.0, remote_units = 0.0,
               campaigns = 0.0, bulk_campaigns = 0.0;
        double covered_wall = 0.0, total_wall = 0.0;
        for (const CampaignRec& r : recs) {
            if (!r.traced) continue;
            const FaultSet& s = w->sets[r.set];
            const core::Instrumentation& st = r.result.stats;
            sum.merge_from(st);
            campaigns += 1.0;
            submit_s += r.submit_s;
            std::set<std::pair<uint32_t, uint32_t>> wins;
            std::vector<std::pair<double, double>> spans;
            spans.emplace_back(0.0, r.submit_s);
            for (const core::ShardBreakdown& b : st.shards) {
                units += 1.0;
                unit_wall += b.wall_seconds;
                stim_blocked += b.stimulus_seconds;
                queue += b.queue_seconds;
                if (r.high) {
                    hi_units += 1.0;
                    hi_queue += b.queue_seconds;
                }
                if (b.remote) {
                    remote_units += 1.0;
                    rtt += b.rtt_seconds;
                }
                const double span_epochs = b.epoch_end - b.epoch_begin;
                good_replays += span_epochs;
                // Estimated good-machine seconds: each unit replays its
                // window's share of one good pass.
                good_est += s.good_pass_s * span_epochs / s.epochs;
                wins.insert({b.epoch_begin, b.epoch_end});
                const double start = r.submit_s + b.queue_seconds;
                spans.emplace_back(start, start + b.wall_seconds +
                                              (b.remote ? b.rtt_seconds
                                                        : 0.0));
            }
            if (!r.high) {
                bulk_campaigns += 1.0;
                windows += static_cast<double>(wins.size());
            }
            // Ledger: the part of the campaign's wall covered by its
            // submit() call or by one of its units.
            std::sort(spans.begin(), spans.end());
            double covered = 0.0, reach = 0.0;
            for (auto [b, e] : spans) {
                b = std::max(b, reach);
                e = std::min(e, r.latency_s);
                if (e > b) {
                    covered += e - b;
                    reach = e;
                }
            }
            covered_wall += covered;
            total_wall += r.latency_s;
        }
        double good_pass = 0.0;
        for (const Step& st : w->round) {
            good_pass += w->sets[st.bulk_set].good_pass_s;
        }

        const double nt = std::max(1.0, n_traced);
        put("frontend.compile_s", median_of(&SetupTimes::frontend), "s");
        put("compiled_design.build_s", median_of(&SetupTimes::build), "s");
        put("fault.generate_s", median_of(&SetupTimes::faults), "s");
        double fault_count = 0.0;
        for (const FaultSet& s : w->sets) fault_count += s.faults.size();
        put("fault.count", fault_count, "count");
        put("supervisor.start_s", median_of(&SetupTimes::supervisor), "s");
        put("concurrent_sim.unit_wall_s", unit_wall / nt, "s/round");
        put("concurrent_sim.behavioral_s",
            sum.time_behavioral.total_seconds() / nt, "s/round");
        put("concurrent_sim.rtl_s", sum.time_rtl.total_seconds() / nt,
            "s/round");
        put("concurrent_sim.bn_candidates",
            static_cast<double>(sum.bn_candidates) / nt, "count/round");
        put("concurrent_sim.bn_executed",
            static_cast<double>(sum.bn_executed) / nt, "count/round");
        put("concurrent_sim.bn_skipped_explicit",
            static_cast<double>(sum.bn_skipped_explicit) / nt,
            "count/round");
        put("concurrent_sim.bn_skipped_implicit",
            static_cast<double>(sum.bn_skipped_implicit) / nt,
            "count/round");
        put("concurrent_sim.rtl_fault_evals",
            static_cast<double>(sum.rtl_fault_evals) / nt, "count/round");
        put("concurrent_sim.implicit_skip_ratio",
            ratio(static_cast<double>(sum.bn_skipped_implicit),
                  static_cast<double>(sum.bn_candidates)),
            "ratio");
        put("batch_exec.lane_passes",
            static_cast<double>(sum.bn_lane_passes) / nt, "count/round");
        put("batch_exec.lane_deferred",
            static_cast<double>(sum.bn_lane_deferred) / nt,
            "count/round");
        put("batch_exec.defer_ratio",
            ratio(static_cast<double>(sum.bn_lane_deferred),
                  static_cast<double>(sum.bn_lane_survivors +
                                      sum.bn_lane_deferred)),
            "ratio");
        put("sim.good_pass_s", good_pass, "s");
        put("sim.good_replays", good_replays / nt, "count/round");
        put("sim.good_share", ratio(good_est, unit_wall), "ratio");
        put("stimulus_pipeline.blocked_s", stim_blocked / nt, "s/round");
        put("shard.epoch_windows", ratio(windows, bulk_campaigns),
            "count/campaign");
        put("shard.plan_s", ratio(submit_s, campaigns), "s/campaign");
        put("shard.units", ratio(units, campaigns), "count/campaign");
        put("scheduler.queue_s", ratio(queue, units), "s/unit");
        put("scheduler.hi_queue_s", ratio(hi_queue, hi_units), "s/unit");
        put("scheduler.utilization",
            ratio(unit_wall, w->executors * traced_s), "ratio");
        const double hits =
            static_cast<double>(cache1.hits - cache0.hits);
        const double misses =
            static_cast<double>(cache1.misses - cache0.misses);
        put("verdict_cache.hits", hits / n_rounds, "count/round");
        put("verdict_cache.misses", misses / n_rounds, "count/round");
        put("verdict_cache.hit_ratio", ratio(hits, hits + misses),
            "ratio");
        put("verdict_cache.insertions",
            static_cast<double>(cache1.insertions - cache0.insertions) /
                n_rounds,
            "count/round");
        put("verdict_cache.save_s", quantile(save_s, 0.5), "s");
        put("verdict_cache.load_s", quantile(load_s, 0.5), "s");
        put("journal.appends",
            static_cast<double>(journal1.appends - journal0.appends) /
                n_rounds,
            "count/round");
        put("journal.fsyncs",
            static_cast<double>(journal1.fsyncs - journal0.fsyncs) /
                n_rounds,
            "count/round");
        put("journal.bytes",
            static_cast<double>(journal_bytes1 - journal_bytes0) /
                n_rounds,
            "B/round");
        put("journal.replay_s", replay_s, "s");
        put("remote.units", remote_units / nt, "count/round");
        put("remote.unit_share", ratio(remote_units, units), "ratio");
        put("remote.rtt_s", ratio(rtt, remote_units), "s/unit");
        put("remote.redispatches", static_cast<double>(redispatches),
            "count");
        put("remote.worker_rss_mb", worker_rss, "MB");
        put("trace.overhead",
            ratio(plain_work, plain_s) > 0.0
                ? ratio(plain_work, plain_s) /
                          ratio(traced_work, traced_s) -
                      1.0
                : 0.0,
            "ratio");
        put("ledger.residual_share",
            ratio(total_wall - covered_wall, total_wall), "ratio");

        // Reference figures: Eraser (median bulk campaign at the
        // workload's threads) against the serial event-driven engine
        // (IFsim stand-in, one thread) per circuit.
        std::set<size_t> reported;
        for (const Step& st : w->round) {
            if (!reported.insert(st.bulk_set).second) continue;
            const FaultSet& s = w->sets[st.bulk_set];
            std::vector<double> lat;
            for (const CampaignRec& r : recs) {
                if (r.set == st.bulk_set) lat.push_back(r.latency_s);
            }
            const double eraser = quantile(lat, 0.5);
            const double serial =
                s.oracle_serial_s * (w->kind == "service"
                                         ? 2.0 * kServiceHalf /
                                               s.faults.size()
                                         : 1.0);
            std::printf("ref %s faults=%u eraser_p50_s=%.6f "
                        "ifsim_serial_s=%.6f speedup=%.2f\n",
                        s.name.c_str(), st.bulk_len, eraser, serial,
                        ratio(serial, eraser));
        }
    }

    // --- host line and result ---------------------------------------------
    w.reset();   // stops the fleet before the end probe forks
    const double probe_end_ms = memory_probe_ms();
    std::printf("host nproc=%u loadavg_start=%.2f loadavg_end=%.2f "
                "mem_probe_start_ms=%.2f mem_probe_end_ms=%.2f\n",
                host_threads(), load_start, load_end, probe_start_ms,
                probe_end_ms);
    for (const std::string& p : problems) {
        std::printf("PROPERTY FAILED: %s\n", p.c_str());
    }
    if (failed > 0) {
        std::printf("CAMPAIGNS FAILED: %llu of %llu\n",
                    static_cast<unsigned long long>(failed),
                    static_cast<unsigned long long>(attempted));
    }
    const bool correct = problems.empty() && failed == 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char val[64];
        std::snprintf(val, sizeof(val), "%.10g",
                      std::isfinite(metrics[i].value) ? metrics[i].value
                                                      : 0.0);
        json += (i > 0 ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + val + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    suite::register_remote_stimuli();
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    int rc = 1;
    try {
        rc = run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
    }
    std::error_code ec;
    fs::remove_all(args.workdir, ec);
    return rc;
}
