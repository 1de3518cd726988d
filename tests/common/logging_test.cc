/**
 * @file
 * Unit tests for the error-reporting channels and assert macros.
 */
#include "common/logging.h"

#include <gtest/gtest.h>

namespace pod {
namespace {

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(Panic("intentional test panic"), "PANIC");
}

TEST(LoggingDeathTest, FatalExits)
{
    EXPECT_EXIT(Fatal("intentional test fatal"),
                ::testing::ExitedWithCode(1), "FATAL");
}

TEST(LoggingDeathTest, AssertMacroFires)
{
    EXPECT_DEATH(POD_ASSERT(1 == 2), "assertion failed");
}

TEST(LoggingDeathTest, AssertMsgMacroFires)
{
    EXPECT_DEATH(POD_ASSERT_MSG(false, "value was %d", 3),
                 "value was 3");
}

TEST(Logging, AssertPassesOnTrue)
{
    POD_ASSERT(1 + 1 == 2);
    POD_ASSERT_MSG(true, "unused %d", 0);
}

}  // namespace
}  // namespace pod
