package server

import "headroom/internal/breaker"

// BreakerState exposes an endpoint's breaker position.
func (s *Server) BreakerState(kind string) breaker.State {
	return s.kind(kind).breaker.State()
}
