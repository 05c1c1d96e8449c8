/**
 * @file
 * Dependency-free text parser for workload scenario specs, in the
 * style of the `@regate-worker v1` line protocol: a version header,
 * `[scenario NAME]` sections, and strict `key = value` lines.
 *
 *     @regate-spec v1
 *     # one scenario per section; '#' starts a comment
 *     [scenario moe-mixtral]
 *     family = moe
 *     model = 70b
 *     experts = 8
 *     batch = 16,32          # lists and ranges expand the grid
 *     chips = 8..64:*2       # geometric range; +N is arithmetic
 *     tp = 8
 *     dp = 1                 # with tp/pp: chips must equal dp*tp*pp
 *     pp = 1
 *
 * Integer keys accept multi-values (`a,b,c`, `lo..hi:*k`,
 * `lo..hi:+k`); a section expands to the deterministic cross-product
 * in key order, suffixing names (`moe-mixtral@batch=16`). Every
 * violation — unknown family, unknown key, malformed value, bad
 * distribution, `chips != tp*dp*pp`, empty or duplicate sections —
 * is a ConfigError naming the offending file:line.
 *
 * The canonical dump (defaults filled, keys in fixed order)
 * round-trips through the parser to identical scenarios, and its
 * digest is the spec file's identity.
 */

#ifndef REGATE_MODELS_SPEC_H
#define REGATE_MODELS_SPEC_H

#include <memory>
#include <string>
#include <vector>

#include "models/scenario.h"

namespace regate {
namespace models {

/** A parsed, expanded, validated spec file. */
struct SpecFile
{
    /** Expanded scenarios, defaults filled, in declaration order. */
    std::vector<std::shared_ptr<const ScenarioSpec>> scenarios;

    /** Canonical dump; reparses to identical scenarios. */
    std::string canonicalText;

    /**
     * FNV-1a digest (hex16) of canonicalText — the spec identity.
     * Textual variants of the same scenarios share a digest.
     */
    std::string digest;
};

/** Parse spec text; @p source names it in errors ("file:line: ..."). */
SpecFile parseSpecText(const std::string &text,
                       const std::string &source = "<spec>");

/** Read and parse a spec file; ConfigError on any failure. */
SpecFile parseSpecFile(const std::string &path);

/** Canonical dump of validated scenarios (see SpecFile). */
std::string canonicalSpecText(
    const std::vector<std::shared_ptr<const ScenarioSpec>> &scenarios);

}  // namespace models
}  // namespace regate

#endif  // REGATE_MODELS_SPEC_H
