// Table 2 (paper §7.3): cost of VM operations as a function of the number of
// pages n. The simulated Vm is driven for n = 1..64 and a least-squares line
// is fitted; the recovered coefficients must match the table:
//     pin    35 + 29*n us,  unpin  48 + 3.9*n us,  map  6 + 4.5*n us.
#include <cstdio>
#include <vector>

#include "core/host.h"
#include "harness.h"

using namespace nectar;

namespace {

struct Fit {
  double base, per_page;
};

Fit fit_line(const std::vector<std::pair<double, double>>& xy) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(xy.size());
  for (auto [x, y] : xy) {
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  return Fit{(sy - slope * sx) / n, slope};
}

struct Probe {
  sim::Duration elapsed = 0;
  bool done = false;
};

}  // namespace

int main(int argc, char** argv) {
  nectar::bench::parse(argc, argv, 0);
  sim::Simulator simu;
  core::Host host(simu, core::HostParams::alpha3000_400(), "host");
  auto& proc = host.create_process("probe");
  mem::UserBuffer buf(proc.as, 64 * mem::kPageSize);

  enum class Kind { kPin, kUnpin, kMap };
  auto measure = [&](Kind kind, std::size_t npages) {
    auto st = std::make_shared<Probe>();
    auto run = [&host, &proc, &buf, kind, npages, st]() -> sim::Task<void> {
      const sim::Time t0 = host.sim().now();
      const std::size_t len = npages * mem::kPageSize;
      switch (kind) {
        case Kind::kPin:
          co_await host.vm().pin(proc.as, buf.addr(), len, proc.sys_acct,
                                 sim::Priority::Normal);
          break;
        case Kind::kUnpin:
          co_await host.vm().pin(proc.as, buf.addr(), len, proc.sys_acct,
                                 sim::Priority::Normal);
          // measure the unpin alone
          {
            const sim::Time t1 = host.sim().now();
            co_await host.vm().unpin(proc.as, buf.addr(), len, proc.sys_acct,
                                     sim::Priority::Normal);
            st->elapsed = host.sim().now() - t1;
            st->done = true;
            co_return;
          }
        case Kind::kMap:
          co_await host.vm().map(proc.as, buf.addr(), len, proc.sys_acct,
                                 sim::Priority::Normal);
          break;
      }
      st->elapsed = host.sim().now() - t0;
      if (kind == Kind::kPin)
        co_await host.vm().unpin(proc.as, buf.addr(), len, proc.sys_acct,
                                 sim::Priority::Normal);
      st->done = true;
    };
    sim::spawn(run());
    simu.run();
    return sim::to_usec(st->elapsed);
  };

  std::printf("Table 2: VM operation cost (us) vs pages, %s\n",
              host.params().model.c_str());
  std::printf("%6s %10s %10s %10s\n", "pages", "pin", "unpin", "map");
  std::vector<std::pair<double, double>> pin_xy, unpin_xy, map_xy;
  for (std::size_t n : {1, 2, 4, 8, 16, 32, 64}) {
    const double p = measure(Kind::kPin, n);
    const double u = measure(Kind::kUnpin, n);
    const double m = measure(Kind::kMap, n);
    pin_xy.emplace_back(n, p);
    unpin_xy.emplace_back(n, u);
    map_xy.emplace_back(n, m);
    std::printf("%6zu %10.1f %10.1f %10.1f\n", n, p, u, m);
  }
  const Fit fp = fit_line(pin_xy), fu = fit_line(unpin_xy), fm = fit_line(map_xy);
  std::printf("\nFitted:   pin = %5.1f + %4.2f*n   (paper: 35 + 29*n)\n", fp.base,
              fp.per_page);
  std::printf("        unpin = %5.1f + %4.2f*n   (paper: 48 + 3.9*n)\n", fu.base,
              fu.per_page);
  std::printf("          map = %5.1f + %4.2f*n   (paper:  6 + 4.5*n)\n", fm.base,
              fm.per_page);
  return 0;
}
