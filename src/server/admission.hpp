// Tenant namespaces and admission control at the server boundary
// (ROADMAP item 3; Ripple's declarative resource handling in PAPERS.md is
// the model: callers declare a tenant, the platform enforces quotas).
//
// A tenant is a short namespace string attached to every request — either a
// `"tenant"` field in the JSON body (wins) or an `x-laminar-tenant` header.
// Requests that name neither run as the `default` tenant, which preserves
// the whole pre-tenancy behavior: default-tenant rows are visible to
// everyone, default quotas are unlimited unless configured, and default
// runs keep the legacy `wf:N:*` broker key prefix.
//
// AdmissionController owns the boundary checks:
//  - a token-bucket request rate per tenant (requests_per_sec/burst),
//    returning kResourceExhausted with a retry-after hint when drained —
//    the server maps this to HTTP 429 with a `retryAfterMs` body field;
//  - registered-row quotas (max_pes/max_workflows) checked against live
//    per-tenant counts that the server maintains under its exclusive lock
//    and rebuilds from the repository after load/recovery;
//  - per-tenant run-outcome counters for the /stats tenants block.
//
// Run scheduling (concurrency caps, fair queueing) lives in
// engine::FairRunQueue; the TenantQuotas fields max_concurrent_runs,
// max_queued_runs and weight are handed to it per /execute.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "common/value.hpp"

namespace laminar::telemetry {
class Counter;
class Gauge;
}  // namespace laminar::telemetry

namespace laminar::server {

/// Implicit namespace of requests that do not name a tenant.
inline constexpr std::string_view kDefaultTenant = "default";

/// All limits default to 0 = unlimited, so an unconfigured server behaves
/// exactly as before tenancy existed.
struct TenantQuotas {
  int64_t max_pes = 0;        ///< registered PE rows
  int64_t max_workflows = 0;  ///< registered workflow rows
  int max_concurrent_runs = 0;
  int max_queued_runs = 0;
  double requests_per_sec = 0.0;  ///< token-bucket refill rate
  double burst = 0.0;             ///< bucket capacity (0 = requests_per_sec)
  double weight = 1.0;            ///< fair-share weight in the run queue
};

/// Tenant names become metric label values and broker key segments, so the
/// charset and length are strict: [A-Za-z0-9._-]{1,64}.
bool ValidTenantName(std::string_view name);

class AdmissionController {
 public:
  AdmissionController(TenantQuotas defaults,
                      std::map<std::string, TenantQuotas> overrides);

  /// Effective quotas: the per-tenant override when present, else defaults.
  const TenantQuotas& QuotasFor(const std::string& tenant) const;

  /// Token-bucket rate gate, called once per request (except /health and
  /// /metrics). On refusal returns kResourceExhausted and sets
  /// `retry_after_ms` to when a token will be available.
  Status AdmitRequest(const std::string& tenant, double* retry_after_ms);

  /// Row-quota checks. `additional` is how many rows the operation wants to
  /// add. Callers must hold the server's exclusive lock for the
  /// check-then-commit to be atomic; the early advisory checks on the
  /// shared-lock path are allowed to race (the commit re-checks).
  Status AdmitPes(const std::string& tenant, int64_t additional) const;
  Status AdmitWorkflows(const std::string& tenant, int64_t additional) const;

  /// Row accounting (server exclusive lock held).
  void OnPesChanged(const std::string& tenant, int64_t delta);
  void OnWorkflowsChanged(const std::string& tenant, int64_t delta);
  /// Replaces all row counts (after /registry/load, remove_all, recovery).
  void ResetRowCounts(std::map<std::string, std::pair<int64_t, int64_t>>
                          pe_and_workflow_counts);

  /// Run-outcome accounting for /stats reconciliation with ##END## totals.
  void RecordRunOutcome(const std::string& tenant, bool ok);

  /// The /stats "tenants" block: requests/throttled/row/run counters keyed
  /// by tenant. Merged by the server with FairRunQueue::Snapshot().
  Value StatsJson() const;

 private:
  struct TenantCounters {
    double tokens = 0.0;
    int64_t last_refill_us = 0;
    bool bucket_primed = false;
    uint64_t requests = 0;
    uint64_t throttled = 0;
    int64_t pes = 0;
    int64_t workflows = 0;
    uint64_t runs_succeeded = 0;
    uint64_t runs_failed = 0;
    /// This tenant's metric handles, resolved when it is first seen so no
    /// request looks a metric up under the registry's mutex.
    telemetry::Counter* requests_total = nullptr;
    telemetry::Counter* throttled_total = nullptr;
    telemetry::Gauge* pe_rows = nullptr;
    telemetry::Gauge* workflow_rows = nullptr;
    telemetry::Counter* runs_ok_total = nullptr;
    telemetry::Counter* runs_error_total = nullptr;
  };
  /// The tenant's entry, created with its metric handles. Requires mu_.
  TenantCounters& Tenant(const std::string& tenant);

  const TenantQuotas defaults_;
  const std::map<std::string, TenantQuotas> overrides_;
  mutable std::mutex mu_;
  std::map<std::string, TenantCounters> tenants_;
};

}  // namespace laminar::server
