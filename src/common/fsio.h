/**
 * @file
 * Whole-file write helper (the metrics snapshot writer). Errors
 * surface as ConfigError with the offending path.
 */

#ifndef REGATE_COMMON_FSIO_H
#define REGATE_COMMON_FSIO_H

#include <fstream>
#include <string>

#include "common/error.h"

namespace regate {

inline void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    REGATE_CHECK(out.good(), "cannot write ", path);
    out << content;
    out.flush();
    REGATE_CHECK(out.good(), "error writing ", path);
}

}  // namespace regate

#endif  // REGATE_COMMON_FSIO_H
