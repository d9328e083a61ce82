// The seed-generated request mix of service_mixed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sunfloor/specgen/specgen.h"

namespace ledger {

enum class RequestClass { Cold, Near, Warm };

/// "cold" / "near" / "warm".
const char* class_name(RequestClass c);

struct PlannedRequest {
    int spec = 0;  ///< index into ServicePlan::specs
    double freq_mhz = 400.0;
    int max_tsvs = 25;
    /// Cold: first request on its spec. Near: a new (freq, TSV) on a
    /// resident spec. Warm: an exact repeat of an earlier request.
    RequestClass cls = RequestClass::Cold;
};

struct ServicePlan {
    std::vector<sunfloor::specgen::GenParams> gens;
    std::vector<std::uint64_t> gen_seeds;
    std::vector<PlannedRequest> requests;
};

/// Request counts per class in one pass.
inline constexpr int kColdRequests = 4;  ///< one per spec
inline constexpr int kNearRequests = 7;
inline constexpr int kWarmRequests = 17;

/// Build the plan for `seed`: kColdRequests fixed specgen instances
/// (mixed families, 16-24 cores) and a seed-drawn request sequence whose
/// first request is cold.
ServicePlan plan_service(std::uint64_t seed);

}  // namespace ledger
