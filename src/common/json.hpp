// JSON parsing into laminar::Value.
//
// The wire protocol and registry persistence (snapshots, WAL lines and
// replication batches, whose rows are JSON objects) all parse through here.
// Strict-ish RFC 8259: rejects trailing garbage, accepts UTF-8 passthrough,
// supports \uXXXX escapes (with surrogate pairs).
#pragma once

#include <string_view>

#include "common/status.hpp"
#include "common/value.hpp"

namespace laminar::json {

/// Parses exactly one JSON document (plus surrounding whitespace).
Result<Value> Parse(std::string_view text);

}  // namespace laminar::json
