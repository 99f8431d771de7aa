package a

import "context"

// SolveOld is a pre-context wrapper. A file named legacy.go exempts nothing:
// the analyzer honors no suppression.
func SolveOld(n int) int { return SolveGood(context.Background(), n) } // want "exported entry point SolveOld must take a context.Context as its first parameter"

// SolveUnmarked is a second finding in the same file.
func SolveUnmarked(n int) int { return n } // want "exported entry point SolveUnmarked must take a context.Context as its first parameter"
