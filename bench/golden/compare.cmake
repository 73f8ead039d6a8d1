# Run one bench and compare its stdout byte for byte with a golden file.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -P compare.cmake
#
# On a mismatch the actual output is written next to the build's test
# logs (<GOLDEN name>.actual in the working directory) for diffing.

execute_process(COMMAND ${BENCH}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    get_filename_component(name ${GOLDEN} NAME)
    file(WRITE ${name}.actual "${actual}")
    message(FATAL_ERROR
        "${BENCH} output differs from ${GOLDEN}; actual output written "
        "to ${name}.actual")
endif()
