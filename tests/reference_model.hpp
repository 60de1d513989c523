// ReferenceModel — the executable specification of Score(h, vm), kept in
// test code only.
//
// It implements the hill-climb Model concept (core/hill_climb.hpp) over the
// same row layout as the production ScoreModel: one row per host, row
// index == HostId, plus the virtual host as the last row. Rows of hosts
// that are not placeable are constantly kInfScore. Columns are the queued
// VMs in queue order, then — when migration is enabled — every running VM
// on a placeable host in active_vms() order.
//
// Everything else is deliberately naive: there is no cell cache, no static
// terms, no pruning and no fleet snapshot. Every cell() call re-reads the
// host and the VM from the Datacenter and composes the penalties of
// core/penalties.hpp with the same expressions and in the same
// accumulation order as the production model, so the two agree bit for
// bit. Only the plan bookkeeping (reserved CPU / memory, VM count, running
// demand per host) is kept here, updated by move() exactly as the
// production model updates its own.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/penalties.hpp"
#include "core/score.hpp"
#include "core/score_matrix.hpp"
#include "datacenter/datacenter.hpp"
#include "support/contracts.hpp"
#include "workload/satisfaction.hpp"

namespace easched::testing {

class ReferenceModel {
 public:
  ReferenceModel(const datacenter::Datacenter& dc,
                 const std::vector<datacenter::VmId>& queued,
                 const core::ScoreParams& params, bool migration_enabled)
      : dc_(dc), params_(params), now_(dc.simulator().now()),
        nhosts_(static_cast<int>(dc.num_hosts())) {
    for (datacenter::HostId h = 0; h < dc.num_hosts(); ++h) {
      const auto& host = dc.host(h);
      cpu_res_.push_back(dc.reserved_cpu_pct(h));
      mem_res_.push_back(dc.reserved_mem_mb(h));
      vm_count_.push_back(static_cast<int>(host.vm_count()));
      double running = 0;
      for (const datacenter::VmId v : host.residents) {
        if (dc.vm(v).state == datacenter::VmState::kRunning) {
          running += dc.vm(v).cpu_demand_pct;
        }
      }
      running_.push_back(running);
    }
    for (const datacenter::VmId v : queued) {
      cols_.push_back({v, true, nhosts_, nhosts_});
    }
    if (migration_enabled) {
      for (const datacenter::VmId v : dc.active_vms()) {
        const auto& vm = dc.vm(v);
        if (vm.state != datacenter::VmState::kRunning) continue;
        if (!dc.placeable(vm.host)) continue;  // pinned, not a column
        const int home = static_cast<int>(vm.host);
        cols_.push_back({v, false, home, home});
      }
    }
  }

  [[nodiscard]] int rows() const { return nhosts_ + 1; }
  [[nodiscard]] int cols() const { return static_cast<int>(cols_.size()); }
  [[nodiscard]] int virtual_row() const { return nhosts_; }
  [[nodiscard]] int plan_row(int c) const { return col(c).planned; }
  [[nodiscard]] int original_row(int c) const { return col(c).original; }
  [[nodiscard]] bool movable(int /*c*/) const { return true; }
  [[nodiscard]] datacenter::VmId vm_at(int c) const { return col(c).id; }
  [[nodiscard]] datacenter::HostId host_at(int r) const {
    EA_EXPECTS(r >= 0 && r < virtual_row());
    return static_cast<datacenter::HostId>(r);
  }

  /// Score(r, c) under the current plan, recomputed from scratch.
  [[nodiscard]] double cell(int r, int c) const {
    EA_EXPECTS(r >= 0 && r < rows());
    if (r == virtual_row()) return core::kInfScore;
    const Col& k = col(c);
    const auto h = static_cast<datacenter::HostId>(r);
    const auto i = static_cast<std::size_t>(r);
    const auto& host = dc_.host(h);
    const auto& spec = host.spec;
    const auto& vm = dc_.vm(k.id);
    const auto& job = vm.job;

    // Preq, with placeability folded in.
    if (!dc_.placeable(h) || spec.arch != job.arch ||
        (spec.software & job.software) != job.software) {
      return core::kInfScore;
    }
    const bool planned_here = k.planned == r;
    const bool home = k.original == r;
    const double vcpu = vm.cpu_demand_pct;

    // Pres.
    const double cpu = cpu_res_[i] + (planned_here ? 0.0 : vcpu);
    const double mem = mem_res_[i] + (planned_here ? 0.0 : job.mem_mb);
    const double occupation =
        std::max(cpu / spec.cpu_capacity_pct, mem / spec.mem_mb);
    double s = core::p_res(occupation);
    if (core::is_inf_score(s)) return core::kInfScore;

    const double elapsed = now_ - job.submit;
    if (params_.use_virt) {
      const double pm = core::p_migration(spec.migration_cost_s,
                                          job.dedicated_seconds - elapsed);
      s += core::p_virt(home, /*operation_on_vm=*/false, k.is_new,
                        spec.creation_cost_s, pm);
    }
    if (params_.use_conc) {
      double conc = 0;
      for (const auto& op : host.ops) conc += std::max(0.0, op.ends - now_);
      s += core::p_conc(home, conc);
    }
    if (params_.use_pwr) {
      const int count_wo_vm = vm_count_[i] - (planned_here ? 1 : 0);
      s += core::p_pwr(count_wo_vm, params_.th_empty, params_.c_empty,
                       occupation, params_.c_fill);
    }
    if (params_.use_sla) {
      double demand = running_[i] + host.mgmt_demand_pct();
      if (!planned_here) demand += vcpu;
      const double cap = spec.cpu_capacity_pct;
      const double rate = demand <= cap || demand <= 0 ? 1.0 : cap / demand;
      const double transfer =
          k.is_new ? spec.creation_cost_s
                   : (home ? 0.0 : spec.migration_cost_s);
      const double projected =
          elapsed + transfer + vm.remaining_work_s() / rate;
      const double fulfilment =
          workload::satisfaction(std::max(projected, 0.0),
                                 job.deadline_seconds()) /
          100.0;
      s += core::p_sla(fulfilment, params_.th_sla, params_.c_sla);
    }
    if (params_.use_fault) {
      s += core::p_fault(spec.reliability, job.fault_tolerance,
                         params_.c_fail);
    }
    return std::min(s, core::kInfScore);
  }

  /// Section III-C row aggregate: finite sum plus 1e9 per infinite cell.
  [[nodiscard]] double row_aggregate(int r) const {
    if (r == virtual_row()) return core::kInfScore;
    double finite_sum = 0;
    int inf_count = 0;
    for (int c = 0; c < cols(); ++c) {
      const double s = cell(r, c);
      if (core::is_inf_score(s)) {
        ++inf_count;
      } else {
        finite_sum += s;
      }
    }
    return inf_count * 1e9 + finite_sum;
  }

  /// Plan move with the production model's bookkeeping order; moving a
  /// column to the virtual row releases its reservations.
  core::ScoreModel::Dirty move(int r, int c) {
    EA_EXPECTS(r >= 0 && r <= virtual_row());
    Col& k = cols_[static_cast<std::size_t>(c)];
    EA_EXPECTS(k.planned != r);
    const auto& vm = dc_.vm(k.id);
    const double vcpu = vm.cpu_demand_pct;
    const double vmem = vm.job.mem_mb;
    core::ScoreModel::Dirty dirty;
    dirty.col = c;
    dirty.row_b = r == virtual_row() ? -1 : r;
    if (k.planned != virtual_row()) {
      const auto from = static_cast<std::size_t>(k.planned);
      cpu_res_[from] -= vcpu;
      mem_res_[from] -= vmem;
      vm_count_[from] -= 1;
      running_[from] -= vcpu;
      dirty.row_a = k.planned;
    }
    if (r != virtual_row()) {
      const auto to = static_cast<std::size_t>(r);
      cpu_res_[to] += vcpu;
      mem_res_[to] += vmem;
      vm_count_[to] += 1;
      running_[to] += vcpu;
    }
    k.planned = r;
    return dirty;
  }

 private:
  struct Col {
    datacenter::VmId id = 0;
    bool is_new = false;
    int original = -1;
    int planned = -1;
  };

  [[nodiscard]] const Col& col(int c) const {
    EA_EXPECTS(c >= 0 && c < cols());
    return cols_[static_cast<std::size_t>(c)];
  }

  const datacenter::Datacenter& dc_;
  core::ScoreParams params_;
  sim::SimTime now_ = 0;
  int nhosts_ = 0;
  std::vector<double> cpu_res_, mem_res_, running_;
  std::vector<int> vm_count_;
  std::vector<Col> cols_;
};

}  // namespace easched::testing
