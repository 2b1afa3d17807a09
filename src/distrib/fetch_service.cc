#include "distrib/fetch_service.h"

#include <string>

#include "zone/sign.h"
#include "zone/snapshot.h"

namespace rootless::distrib {

ZoneFetchService::ZoneFetchService(sim::Simulator& sim, Options options)
    : sim_(sim),
      config_(options.config),
      provider_(std::move(options.provider)),
      rng_(config_.seed) {
  obs::Registry& reg =
      options.registry ? *options.registry : obs::Registry::Default();
  const obs::Labels labels{reg.NextInstance("distrib.fetch"), "", ""};
  fetches_ = reg.counter("distrib.fetch.fetches", labels);
  failures_ = reg.counter("distrib.fetch.failures", labels);
  validation_failures_ = reg.counter("distrib.fetch.validation_failures",
                                     labels);
  bytes_served_ = reg.counter("distrib.fetch.bytes_served", labels);
  retries_ = reg.counter("distrib.fetch.retries", labels);
}

void ZoneFetchService::Fetch(FetchCallback callback) {
  // Distribution-lifecycle span: all attempts → (verify) → delivery.
  const obs::SpanId span =
      ROOTLESS_SPAN_START(sim_.tracer(), "distrib.fetch", obs::kNoSpan);
  auto schedule = std::make_shared<sim::RetrySchedule>(config_.retry);
  (void)schedule->NextDelay(rng_);  // first attempt starts immediately
  Attempt(std::move(schedule), std::move(callback), span);
}

void ZoneFetchService::Attempt(std::shared_ptr<sim::RetrySchedule> schedule,
                               FetchCallback callback, obs::SpanId span) {
  fetches_.Inc();
  if (InOutage(sim_.now())) {
    failures_.Inc();
    // Failure is detected after a timeout-ish delay.
    const sim::SimTime detect = config_.base_latency * 4;
    if (schedule->CanAttempt()) {
      retries_.Inc();
      const sim::SimTime backoff = schedule->NextDelay(rng_);
      sim_.Schedule(detect + backoff,
                    [this, schedule = std::move(schedule), span,
                     callback = std::move(callback)]() mutable {
                      Attempt(std::move(schedule), std::move(callback), span);
                    });
      return;
    }
    const int attempts = schedule->attempts_started();
    sim_.Schedule(detect, [this, attempts, span,
                           callback = std::move(callback)]() {
      ROOTLESS_SPAN_END(sim_.tracer(), span);
      callback(util::Error(ErrorCode::kUnreachable,
                           "fetch: service unavailable (" +
                               std::to_string(attempts) + " attempts)"));
    });
    return;
  }
  zone::SnapshotPtr z = provider_();
  const std::size_t size = SerializeSnapshot(*z).size();
  bytes_served_.Inc(size);
  const sim::SimTime transfer =
      config_.base_latency +
      static_cast<sim::SimTime>(static_cast<double>(size) /
                                config_.bandwidth_bytes_per_sec * sim::kSecond);
  const bool verify = config_.verify_signatures;
  sim_.Schedule(transfer, [this, z = std::move(z), verify, span,
                           callback = std::move(callback)]() {
    if (verify) {
      const obs::SpanId vspan =
          ROOTLESS_SPAN_START(sim_.tracer(), "distrib.verify", span);
      auto validated = zone::ValidateSignedZone(*z, dnskey_, store_,
                                                config_.validation_now);
      ROOTLESS_SPAN_END(sim_.tracer(), vspan);
      if (!validated.ok()) {
        validation_failures_.Inc();
        ROOTLESS_SPAN_END(sim_.tracer(), span);
        callback(util::Error(ErrorCode::kVerifyFailed,
                             "fetch: validation failed: " +
                                 validated.error().message()));
        return;
      }
    }
    ROOTLESS_SPAN_END(sim_.tracer(), span);
    callback(z);
  });
}

}  // namespace rootless::distrib
