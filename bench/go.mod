// The harness is a module of its own, so that the repository's build and
// tests (go build ./... && go test ./...) never include it; the replace
// directive points it at the code under test, and the dco/ prefix of its
// path is what lets it import dco/internal/... through exported seams.
module dco/bench

go 1.22

require dco v0.0.0

replace dco => ../
