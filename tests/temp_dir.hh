/**
 * @file
 * Private scratch directories for tests. ctest runs every discovered
 * case as its own process, several at once, so no two cases may share
 * a fixed path: each asks for a fresh mkdtemp directory instead.
 */

#ifndef BALANCE_TESTS_TEMP_DIR_HH
#define BALANCE_TESTS_TEMP_DIR_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace balance
{

/**
 * @return a new, empty directory $TMPDIR/@p stem.XXXXXX (/tmp when
 *         TMPDIR is unset); a failed mkdtemp fails the test.
 */
inline std::string
makeTempDir(const std::string &stem)
{
    const char *root = std::getenv("TMPDIR");
    std::string pattern = std::string(root && *root ? root : "/tmp") +
                          "/" + stem + ".XXXXXX";
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    if (!::mkdtemp(buf.data()))
        ADD_FAILURE() << "mkdtemp failed for " << pattern;
    return buf.data();
}

} // namespace balance

#endif // BALANCE_TESTS_TEMP_DIR_HH
