/**
 * @file
 * File helpers shared by tests: whole-file reads, and damaged copies of
 * a file for tests of readers of on-disk state.
 */

#ifndef GPULP_TESTS_TEST_FILES_H
#define GPULP_TESTS_TEST_FILES_H

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace gpulp {

/** Every truncation of @p file, @p file padded by one byte, and every
 *  single-bit flip of it. */
inline std::vector<std::string>
corruptionsOf(const std::string &file)
{
    std::vector<std::string> out;
    for (size_t len = 0; len < file.size(); ++len)
        out.push_back(file.substr(0, len));
    out.push_back(file + '\0');
    for (size_t at = 0; at < file.size(); ++at) {
        for (int bit = 0; bit < 8; ++bit) {
            out.push_back(file);
            out.back()[at] = static_cast<char>(out.back()[at] ^ (1 << bit));
        }
    }
    return out;
}

/** The whole file at @p path ("" if it cannot be read). */
inline std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

} // namespace gpulp

#endif // GPULP_TESTS_TEST_FILES_H
