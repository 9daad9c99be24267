#include "server/admission.hpp"

#include <algorithm>

#include "common/clock.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar::server {
namespace {

std::string TenantLabel(const std::string& tenant) {
  return "tenant=\"" + tenant + '"';
}

}  // namespace

bool ValidTenantName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

AdmissionController::AdmissionController(
    TenantQuotas defaults, std::map<std::string, TenantQuotas> overrides)
    : defaults_(defaults), overrides_(std::move(overrides)) {}

const TenantQuotas& AdmissionController::QuotasFor(
    const std::string& tenant) const {
  auto it = overrides_.find(tenant);
  return it != overrides_.end() ? it->second : defaults_;
}

AdmissionController::TenantCounters& AdmissionController::Tenant(
    const std::string& tenant) {
  TenantCounters& c = tenants_[tenant];
  if (c.requests_total == nullptr) {
    auto& reg = telemetry::MetricsRegistry::Global();
    const std::string label = TenantLabel(tenant);
    c.requests_total = &reg.GetCounter("laminar_tenant_requests_total", label);
    c.throttled_total =
        &reg.GetCounter("laminar_tenant_throttled_total", label);
    c.pe_rows = &reg.GetGauge("laminar_tenant_rows", label + ",kind=\"pe\"");
    c.workflow_rows =
        &reg.GetGauge("laminar_tenant_rows", label + ",kind=\"workflow\"");
    c.runs_ok_total = &reg.GetCounter("laminar_tenant_exec_total",
                                      label + ",outcome=\"ok\"");
    c.runs_error_total = &reg.GetCounter("laminar_tenant_exec_total",
                                         label + ",outcome=\"error\"");
  }
  return c;
}

Status AdmissionController::AdmitRequest(const std::string& tenant,
                                         double* retry_after_ms) {
  const TenantQuotas& quotas = QuotasFor(tenant);
  {
    std::scoped_lock lock(mu_);
    TenantCounters& c = Tenant(tenant);
    ++c.requests;
    c.requests_total->Inc();
    if (quotas.requests_per_sec > 0.0) {
      const double capacity = quotas.burst > 0.0 ? quotas.burst
                                                 : quotas.requests_per_sec;
      int64_t now_us = NowMicros();
      if (!c.bucket_primed) {
        c.tokens = capacity;
        c.bucket_primed = true;
      } else {
        double elapsed_s =
            static_cast<double>(now_us - c.last_refill_us) / 1e6;
        c.tokens = std::min(capacity,
                            c.tokens + elapsed_s * quotas.requests_per_sec);
      }
      c.last_refill_us = now_us;
      if (c.tokens < 1.0) {
        ++c.throttled;
        if (retry_after_ms != nullptr) {
          *retry_after_ms =
              (1.0 - c.tokens) / quotas.requests_per_sec * 1000.0;
        }
        c.throttled_total->Inc();
        return Status::ResourceExhausted("tenant '" + tenant +
                                         "' request rate limit exceeded");
      }
      c.tokens -= 1.0;
    }
  }
  return Status::Ok();
}

Status AdmissionController::AdmitPes(const std::string& tenant,
                                     int64_t additional) const {
  const TenantQuotas& quotas = QuotasFor(tenant);
  if (quotas.max_pes <= 0) return Status::Ok();
  std::scoped_lock lock(mu_);
  auto it = tenants_.find(tenant);
  int64_t current = it != tenants_.end() ? it->second.pes : 0;
  if (current + additional > quotas.max_pes) {
    return Status::ResourceExhausted(
        "tenant '" + tenant + "' PE quota exceeded (" +
        std::to_string(current) + "/" + std::to_string(quotas.max_pes) + ")");
  }
  return Status::Ok();
}

Status AdmissionController::AdmitWorkflows(const std::string& tenant,
                                           int64_t additional) const {
  const TenantQuotas& quotas = QuotasFor(tenant);
  if (quotas.max_workflows <= 0) return Status::Ok();
  std::scoped_lock lock(mu_);
  auto it = tenants_.find(tenant);
  int64_t current = it != tenants_.end() ? it->second.workflows : 0;
  if (current + additional > quotas.max_workflows) {
    return Status::ResourceExhausted(
        "tenant '" + tenant + "' workflow quota exceeded (" +
        std::to_string(current) + "/" + std::to_string(quotas.max_workflows) +
        ")");
  }
  return Status::Ok();
}

void AdmissionController::OnPesChanged(const std::string& tenant,
                                       int64_t delta) {
  std::scoped_lock lock(mu_);
  TenantCounters& c = Tenant(tenant);
  c.pes = std::max<int64_t>(0, c.pes + delta);
  c.pe_rows->Add(delta);
}

void AdmissionController::OnWorkflowsChanged(const std::string& tenant,
                                             int64_t delta) {
  std::scoped_lock lock(mu_);
  TenantCounters& c = Tenant(tenant);
  c.workflows = std::max<int64_t>(0, c.workflows + delta);
  c.workflow_rows->Add(delta);
}

void AdmissionController::ResetRowCounts(
    std::map<std::string, std::pair<int64_t, int64_t>>
        pe_and_workflow_counts) {
  std::scoped_lock lock(mu_);
  for (auto& [tenant, c] : tenants_) {
    c.pe_rows->Set(0);
    c.workflow_rows->Set(0);
    c.pes = 0;
    c.workflows = 0;
  }
  for (const auto& [tenant, counts] : pe_and_workflow_counts) {
    TenantCounters& c = Tenant(tenant);
    c.pes = counts.first;
    c.workflows = counts.second;
    c.pe_rows->Set(counts.first);
    c.workflow_rows->Set(counts.second);
  }
}

void AdmissionController::RecordRunOutcome(const std::string& tenant,
                                           bool ok) {
  std::scoped_lock lock(mu_);
  TenantCounters& c = Tenant(tenant);
  if (ok) {
    ++c.runs_succeeded;
    c.runs_ok_total->Inc();
  } else {
    ++c.runs_failed;
    c.runs_error_total->Inc();
  }
}

Value AdmissionController::StatsJson() const {
  std::scoped_lock lock(mu_);
  Value out = Value::MakeObject();
  for (const auto& [tenant, c] : tenants_) {
    Value t = Value::MakeObject();
    t["requests"] = static_cast<int64_t>(c.requests);
    t["throttled"] = static_cast<int64_t>(c.throttled);
    t["pes"] = c.pes;
    t["workflows"] = c.workflows;
    t["runsSucceeded"] = static_cast<int64_t>(c.runs_succeeded);
    t["runsFailed"] = static_cast<int64_t>(c.runs_failed);
    out[tenant] = std::move(t);
  }
  return out;
}

}  // namespace laminar::server
