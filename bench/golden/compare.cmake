# Run one bench and compare its stdout byte for byte with a golden file.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> [-DDROP=<regex>] -P compare.cmake
#
# With DROP set, every stdout line matching the regex is removed before
# the comparison, and the golden file holds only the lines kept. Benches
# whose output mixes wall-clock timings with deterministic figures use it
# to pin the figures alone.
#
# On a mismatch the actual output (after filtering) is written next to
# the build's test logs (<GOLDEN name>.actual in the working directory)
# for diffing.

execute_process(COMMAND ${BENCH}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()
if(DEFINED DROP)
    # A semicolon would split the line list; park it in a placeholder.
    string(REPLACE ";" "<semicolon>" parked "${actual}")
    string(REGEX MATCHALL "[^\n]*\n|[^\n]+$" lines "${parked}")
    set(actual "")
    foreach(line IN LISTS lines)
        string(REPLACE "<semicolon>" ";" line "${line}")
        string(REGEX REPLACE "\n$" "" body "${line}")
        if(NOT body MATCHES "${DROP}")
            string(APPEND actual "${line}")
        endif()
    endforeach()
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    get_filename_component(name ${GOLDEN} NAME)
    file(WRITE ${name}.actual "${actual}")
    message(FATAL_ERROR
        "${BENCH} output differs from ${GOLDEN}; actual output written "
        "to ${name}.actual")
endif()
