// Wire codec for whole model descriptions — the "ship the compiled model
// once per run" half of the compile-once layer (cwc/compiled_model.hpp).
//
// The distributed runtime used to hand every host an in-process pointer to
// the master's model; now the master encodes the model description into one
// versioned frame (species/compartment alphabets, rules with their rate
// laws, the initial term, the observables — everything the compiler needs)
// and ships it to each host once per run. The receiving host decodes and
// recompiles, and because compilation is deterministic and every numeric
// parameter round-trips bit-exactly, engines built from the decoded
// artifact produce bit-identical sample paths to the master's own.
//
// Frames begin with the archive schema version (dist/archive.hpp): a host
// built against a different schema rejects the frame with a typed
// schema_mismatch_error instead of decoding garbage.
//
// Custom rate laws carry an opaque callable and cannot cross the wire;
// wire_encodable() reports this and encode_model() refuses (the
// distributed runtime then falls back to in-process sharing).
#pragma once

#include <memory>

#include "core/messages.hpp"
#include "cwc/compiled_model.hpp"
#include "dist/archive.hpp"

namespace dist {

/// True when the model can cross the wire (no custom rate laws).
bool wire_encodable(const cwcsim::model_ref& model) noexcept;

/// Encode the model description as one versioned frame.
/// Precondition: wire_encodable(model).
byte_buffer encode_model(const cwcsim::model_ref& model);

/// Canonical 64-bit fingerprint of an encoded model frame (FNV-1a over the
/// frame bytes). Because encode_model() is deterministic — symbol tables,
/// rules, and terms serialize in declaration order and every numeric
/// parameter round-trips bit-exactly — two model_refs hash equal iff their
/// descriptions are identical. The run server keys its compiled_model
/// cache on this: compile once per *model*, not per run.
std::uint64_t model_fingerprint(const byte_buffer& frame) noexcept;

/// Decode a frame produced by encode_model() and compile it. The returned
/// artifact owns its decoded model. Throws schema_mismatch_error on a
/// version mismatch; std::runtime_error on a malformed frame, among them a
/// multiset whose universe or species ids lie past the frame's species
/// table (checked before the multiset is allocated); and
/// util::precondition_error when a rule, the initial term or an observable
/// names an undeclared species or compartment type (compiled_model::
/// compile's check).
std::shared_ptr<const cwc::compiled_model> decode_model(
    const byte_buffer& bytes);

}  // namespace dist
