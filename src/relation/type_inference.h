#ifndef OCDD_RELATION_TYPE_INFERENCE_H_
#define OCDD_RELATION_TYPE_INFERENCE_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "relation/column.h"

namespace ocdd::rel {

/// Options controlling how raw text fields become typed values.
struct TypeInferenceOptions {
  /// Strings that denote NULL (compared after whitespace stripping).
  /// The defaults match the HPI profiling datasets ("" and "?") plus the
  /// SQL spelling.
  std::vector<std::string> null_markers = {"", "?", "NULL", "null"};

  /// When true, skip inference entirely and treat every column as kString.
  /// This mirrors FASTOD's behaviour as described in the paper (§5.2.2),
  /// where all columns compare lexicographically.
  bool force_lexicographic = false;
};

/// Returns true if `field` denotes NULL under `opts`.
bool IsNullMarker(std::string_view field, const TypeInferenceOptions& opts);

/// Infers the type of one column from its raw text fields and parses them
/// into a typed column, in one pass per type tried. NULL markers are
/// recognized after whitespace stripping. The type is kInt if every
/// non-NULL field parses as int64, else kDouble if every non-NULL field
/// from the first non-int on parses as double, else kString; an all-NULL
/// column (and every column under `force_lexicographic`) is kString.
/// kInt/kDouble cells hold the stripped field's value; an int field that
/// does not parse as a double in a kDouble column becomes NULL. kString
/// cells hold the raw, unstripped field.
Column ParseColumn(std::span<const std::string_view> fields,
                   const TypeInferenceOptions& opts);

}  // namespace ocdd::rel

#endif  // OCDD_RELATION_TYPE_INFERENCE_H_
