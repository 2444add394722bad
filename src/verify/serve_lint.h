// Pass: serving-daemon config lint (cosparse.serve_config/v1).
//
// Lint is the strict parser plus three warnings: every error is one of
// serve::parse_serve_config()'s problems, so a document lints clean of
// errors exactly when ServeConfig::from_json accepts it. The warnings flag
// legal configs that defeat themselves: a batch admission can never fill,
// a cache budget below the largest requested dataset, and burst knobs on
// a poisson trace.
#pragma once

#include <vector>

#include "common/json.h"
#include "verify/findings.h"

namespace cosparse::verify {

[[nodiscard]] std::vector<Finding> lint_serve_config(const Json& doc);

/// LintReport wrapper for the cosparse-lint `serve` subcommand.
[[nodiscard]] LintReport lint_serve_config_json(const Json& doc,
                                                const std::string& subject);

}  // namespace cosparse::verify
