// Host-noise record for one benchmark run: vCPU steal share, involuntary
// context switches, threads that were busy during a measured window, and
// peak resident memory. An outlier run can then be explained from its own
// output instead of silently entering a median.
#pragma once

#include <dirent.h>
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <unistd.h>

namespace ftcbench::host {

/// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuTimes {
  std::uint64_t total{0};
  std::uint64_t steal{0};
};

inline CpuTimes cpu_times() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  std::uint64_t v[10] = {};
  for (auto& x : v) in >> x;
  // user nice system idle iowait irq softirq steal guest guest_nice; guest
  // time is already included in user/nice.
  for (int i = 0; i < 8; ++i) t.total += v[i];
  t.steal = v[7];
  return t;
}

/// Share of all CPU time between @p a and @p b that the hypervisor stole.
inline double steal_share(const CpuTimes& a, const CpuTimes& b) {
  const std::uint64_t dt = b.total - a.total;
  return dt == 0 ? 0.0
                 : static_cast<double>(b.steal - a.steal) /
                       static_cast<double>(dt);
}

inline std::uint64_t involuntary_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_nivcsw);
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// CPU ticks (utime + stime) per thread of this process, keyed by tid,
/// with the thread name.
struct ThreadCpu {
  std::string name;
  std::uint64_t ticks{0};
};

inline std::map<int, ThreadCpu> thread_cpu() {
  std::map<int, ThreadCpu> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    const int tid = std::atoi(e->d_name);
    std::ifstream in(std::string("/proc/self/task/") + e->d_name + "/stat");
    std::string line;
    if (!std::getline(in, line)) continue;
    // Fields after the parenthesised name: state is field 3, utime 14,
    // stime 15 (1-based).
    const auto open = line.find('(');
    const auto close = line.rfind(')');
    if (open == std::string::npos || close == std::string::npos) continue;
    ThreadCpu t;
    t.name = line.substr(open + 1, close - open - 1);
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14 || i == 15) t.ticks += std::stoull(field);
    }
    out[tid] = t;
  }
  closedir(dir);
  return out;
}

/// Threads that used at least half a CPU between the two samples taken
/// @p wall_s seconds apart.
inline int busy_threads(const std::map<int, ThreadCpu>& before,
                        const std::map<int, ThreadCpu>& after, double wall_s,
                        std::string* names) {
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  int busy = 0;
  for (const auto& [tid, t] : after) {
    const auto it = before.find(tid);
    const std::uint64_t base = it == before.end() ? 0 : it->second.ticks;
    const double cpu_s = static_cast<double>(t.ticks - base) / hz;
    if (wall_s > 0 && cpu_s >= 0.5 * wall_s) {
      ++busy;
      if (names != nullptr) {
        if (!names->empty()) *names += ",";
        *names += t.name;
      }
    }
  }
  return busy;
}

}  // namespace ftcbench::host
